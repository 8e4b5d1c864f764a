package symexec

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/netpkt"
)

// genPaths builds n synthetic install-terminated paths spread over
// nTables learned tables — the shape of an attack-time derivation
// workload — and a state with entries entries per table.
func genPaths(n, nTables, entries int) ([]Path, *appir.State) {
	st := appir.NewState()
	tables := make([]string, nTables)
	for t := range tables {
		tables[t] = "t" + string(rune('a'+t%26)) + string(rune('a'+t/26))
		for e := 0; e < entries; e++ {
			st.Learn(tables[t],
				appir.MACValue(netpkt.MAC{0, byte(t), 0, 0, byte(e >> 8), byte(e)}),
				appir.U16Value(uint16(e%48+1)))
		}
	}
	paths := make([]Path, n)
	for i := range paths {
		table := tables[i%nTables]
		paths[i] = Path{
			ID: i,
			Conds: []appir.Cond{
				{Expr: appir.FieldEq(appir.FEthType, appir.U16Value(netpkt.EtherTypeIPv4)), Want: true},
				{Expr: appir.FieldIn(appir.FEthDst, table), Want: true},
			},
			CondLearns: []int{0, 0},
			Installs: []appir.RuleTemplate{{
				Match:       []appir.MatchField{{F: appir.FEthDst, Val: appir.FieldRef{F: appir.FEthDst}}},
				Priority:    100,
				IdleTimeout: uint16(i%30 + 1),
				Actions:     []appir.ActionTemplate{appir.ActOutput{Port: appir.FieldLookup(appir.FEthDst, table)}},
			}},
		}
	}
	return paths, st
}

// Parallel derivation must be bit-identical to sequential — same rules,
// same order — at every worker count, on synthetic fan-outs and on the
// real evaluation apps.
func TestDeriveRulesParallelMatchesSequential(t *testing.T) {
	paths, st := genPaths(97, 7, 13)
	want, err := DeriveRulesOpts(paths, st, DeriveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("synthetic workload produced no rules")
	}
	for _, workers := range []int{0, 2, 3, 4, 8, 16} {
		got, err := DeriveRulesOpts(paths, st, DeriveOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: output diverges from sequential (%d vs %d rules)",
				workers, len(got), len(want))
		}
	}

	progs, states := apps.EvaluationSet()
	for i, prog := range progs {
		paths, err := Explore(prog)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		want, err := DeriveRulesOpts(paths, states[i], DeriveOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		got, err := DeriveRulesOpts(paths, states[i], DeriveOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parallel output diverges from sequential", prog.Name)
		}
	}
}

// The worker pool must report the sequential run's error: the first
// failing path in path order, whatever the scheduling.
func TestDeriveRulesParallelErrorDeterministic(t *testing.T) {
	paths, st := genPaths(64, 4, 4)
	// Poison two paths with an action reading an unset scalar; the lower
	// path ID must win the error report.
	bad := appir.ActOutput{Port: appir.ScalarRef{Name: "missing"}}
	paths[41].Installs[0].Actions = []appir.ActionTemplate{bad}
	paths[17].Installs[0].Actions = []appir.ActionTemplate{bad}

	seqErr := func() string {
		_, err := DeriveRulesOpts(paths, st, DeriveOptions{Workers: 1})
		if err == nil {
			t.Fatal("poisoned workload derived without error")
		}
		return err.Error()
	}()
	if !strings.Contains(seqErr, "path 17") {
		t.Fatalf("sequential error names the wrong path: %v", seqErr)
	}
	for trial := 0; trial < 8; trial++ {
		_, err := DeriveRulesOpts(paths, st, DeriveOptions{Workers: 8})
		if err == nil || err.Error() != seqErr {
			t.Fatalf("parallel error %q, want %q", err, seqErr)
		}
	}
}

// Concurrent derivation against a state being mutated from another
// goroutine must be race-clean (run under -race): the analyzer's tracker
// and the controller's event loop share the State.
func TestDeriveRulesParallelRaceWithMutations(t *testing.T) {
	paths, st := genPaths(64, 4, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			st.Learn("ta"+string(rune('a')),
				appir.MACValue(netpkt.MAC{9, 9, 0, 0, byte(i >> 8), byte(i)}),
				appir.U16Value(uint16(i%48+1)))
			st.SetScalar("x", appir.U16Value(uint16(i)))
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := DeriveRulesOpts(paths, st, DeriveOptions{Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

// Automatic sizing derives inline over a small state and hands the
// pool an explicit or a large-state request.
func TestAutoWorkersSizeByState(t *testing.T) {
	_, small := genPaths(8, 4, 16)
	_, large := genPaths(8, 4, minParallelEntries/4)
	for _, c := range []struct {
		st      *appir.State
		workers int
		want    int
	}{
		{small, 0, 1},
		{small, 4, 4},
		{large, 0, runtime.GOMAXPROCS(0)},
		{large, 1, 1},
	} {
		if got := (DeriveOptions{Workers: c.workers}).workers(c.st); got != c.want {
			t.Errorf("Workers %d over %d entries: got %d, want %d",
				c.workers, c.st.Entries(), got, c.want)
		}
	}
}
