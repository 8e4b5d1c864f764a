package symexec

import (
	"reflect"
	"testing"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/netpkt"
)

// A warm Derive (no global changes) must return the same rules as a
// cold one, and selective invalidation must re-solve only the paths
// whose globals moved.
func TestMemoDeriveSelectiveInvalidation(t *testing.T) {
	paths, st := genPaths(60, 6, 8) // paths i depend on table t(i%6)
	m := NewMemo(paths)

	cold, err := m.Derive(st, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := DeriveRules(paths, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Fatal("memoized cold derive diverges from DeriveRules")
	}
	if hits, misses := m.Stats(); hits != 0 || misses != 60 {
		t.Fatalf("cold stats = %d hits / %d misses, want 0/60", hits, misses)
	}

	// Warm: nothing changed, every path hits.
	warm, err := m.Derive(st, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Fatal("warm derive diverges")
	}
	if hits, misses := m.Stats(); hits != 60 || misses != 60 {
		t.Fatalf("warm stats = %d hits / %d misses, want 60/60", hits, misses)
	}

	// Mutate one table: only the 10 paths reading it re-solve.
	st.Learn("taa", appir.MACValue(netpkt.MAC{1, 2, 3, 4, 5, 6}), appir.U16Value(7))
	after, err := m.Derive(st, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantAfter, err := DeriveRules(paths, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, wantAfter) {
		t.Fatal("post-mutation derive diverges from fresh DeriveRules")
	}
	if hits, misses := m.Stats(); hits != 110 || misses != 70 {
		t.Fatalf("selective stats = %d hits / %d misses, want 110/70", hits, misses)
	}
}

// Derivation through the memo must agree with the direct one across the real
// evaluation apps as their states mutate.
func TestMemoDeriveMatchesDirectAcrossMutations(t *testing.T) {
	progs, states := apps.EvaluationSet()
	for i, prog := range progs {
		paths, err := Explore(prog)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		m := NewMemo(paths)
		st := states[i]
		for round := 0; round < 4; round++ {
			got, err := m.Derive(st, DeriveOptions{})
			if err != nil {
				t.Fatalf("%s round %d: %v", prog.Name, round, err)
			}
			want, err := DeriveRules(paths, st)
			if err != nil {
				t.Fatalf("%s round %d: %v", prog.Name, round, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s round %d: memo diverges (%d vs %d rules)",
					prog.Name, round, len(got), len(want))
			}
			// Mutate whatever globals the app reads.
			for _, g := range StateSensitiveVariables(paths) {
				st.Learn(g, appir.MACValue(netpkt.MAC{0, 0, 0, 9, byte(round), byte(i)}),
					appir.U16Value(uint16(round+1)))
			}
		}
	}
}

// The warm path must be dramatically cheaper than the cold path — the
// "repeat Init→Defense transitions near-free" property. The acceptance
// bar is 10×; the test asserts a conservative 3× so slow CI machines
// don't flake, and the benchmarks report the real margin.
func TestMemoWarmDeriveFasterThanCold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	paths, st := genPaths(512, 8, 64)
	var m *Memo
	measure := func() time.Duration {
		start := time.Now()
		if _, err := m.Derive(st, DeriveOptions{}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	var cold, warm time.Duration
	for i := 0; i < 3; i++ { // best-of-3 to shrug off scheduler noise
		m = NewMemo(paths)
		c := measure()
		w := measure()
		if i == 0 || c < cold {
			cold = c
		}
		if i == 0 || w < warm {
			warm = w
		}
	}
	if warm*3 > cold {
		t.Errorf("warm derive %v not ≥3× faster than cold %v", warm, cold)
	}
}
