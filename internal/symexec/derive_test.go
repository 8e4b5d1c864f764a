package symexec

import (
	"strings"
	"testing"

	"floodguard/internal/appir"
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

// Derivation reports the first failing path in path order and stops
// there.
func TestDeriveRulesParallelErrorDeterministic(t *testing.T) {
	paths, st := genPaths(64, 4, 4)
	// Poison two paths with an action reading an unset scalar; the lower
	// path ID must win the error report.
	bad := appir.ActOutput{Port: appir.ScalarRef{Name: "missing"}}
	paths[41].Installs[0].Actions = []appir.ActionTemplate{bad}
	paths[17].Installs[0].Actions = []appir.ActionTemplate{bad}

	rules, err := DeriveRules(paths, st)
	if err == nil {
		t.Fatal("poisoned workload derived without error")
	}
	if !strings.Contains(err.Error(), "path 17") {
		t.Fatalf("error names the wrong path: %v", err)
	}
	if rules != nil {
		t.Fatalf("failed derivation returned %d rules", len(rules))
	}
}

// Derivation against a state being mutated from another goroutine must
// be race-clean (run under -race): the analyzer's tracker and the
// controller's event loop share the State.
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
		if _, err := DeriveRules(paths, st); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
