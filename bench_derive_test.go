package floodguard_test

// Attack-time rule derivation at scale: Algorithm 2 and the epoch memo,
// measured over synthetic path sets of 10²–10⁴ paths and over the
// bundled apps with 10⁴-row states. The synthetic paths follow the shape
// the bundled apps produce — a table-membership condition plus an
// install template whose port is a table lookup — so every derivation
// does real solver enumeration work.

import (
	"strconv"
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/experiments"
	"floodguard/internal/netpkt"
	"floodguard/internal/symexec"
)

const deriveBenchTables = 8

// syntheticPaths builds n independent paths over a state with
// deriveBenchTables MAC tables of 16 entries each. Path i depends on
// table i%deriveBenchTables, so a single Learn staleness-hits exactly
// 1/deriveBenchTables of a memo.
func syntheticPaths(n int) ([]symexec.Path, *appir.State) {
	st := appir.NewState()
	for t := 0; t < deriveBenchTables; t++ {
		name := "bench" + strconv.Itoa(t)
		for i := 0; i < 16; i++ {
			st.Learn(name,
				appir.MACValue(netpkt.MACFromUint64(uint64(t*100+i+1))),
				appir.U16Value(uint16(i%47)+1))
		}
	}
	paths := make([]symexec.Path, n)
	for i := range paths {
		table := "bench" + strconv.Itoa(i%deriveBenchTables)
		paths[i] = symexec.Path{
			ID: i,
			Conds: []appir.Cond{
				{Expr: appir.FieldIn(appir.FEthDst, table), Want: true},
				{Expr: appir.FieldEq(appir.FTpDst, appir.U16Value(uint16(i%1024)+1)), Want: true},
			},
			CondLearns: []int{0, 0},
			Installs: []appir.RuleTemplate{{
				Match: []appir.MatchField{
					{F: appir.FEthDst, Val: appir.FieldRef{F: appir.FEthDst}},
				},
				Priority:    10,
				IdleTimeout: 5,
				Actions: []appir.ActionTemplate{
					appir.ActOutput{Port: appir.FieldLookup(appir.FEthDst, table)},
				},
			}},
		}
	}
	return paths, st
}

func BenchmarkDeriveRules(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		paths, st := syntheticPaths(n)
		b.Run("paths-"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := symexec.DeriveRules(paths, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeriveL2Learning10k measures the derive the mitigation moment
// runs: a cold Algorithm 2 pass over l2_learning's explored paths with
// 10⁴ learned MACs, yielding one dl_dst rule per MAC. Its table-driven
// path carries every entry, so unlike syntheticPaths (many paths, a few
// entries each) it measures the entry-shaped case.
func BenchmarkDeriveL2Learning10k(b *testing.B) {
	const hosts = 10_000
	prog, st := apps.L2Learning()
	for i := 0; i < hosts; i++ {
		st.Learn("macToPort",
			appir.MACValue(netpkt.MACFromUint64(0x020000000000+uint64(i))),
			appir.U16Value(uint16(i%47)+1))
	}
	paths, err := symexec.Explore(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules, err := symexec.DeriveRules(paths, st)
		if err != nil {
			b.Fatal(err)
		}
		if len(rules) != hosts {
			b.Fatalf("derived %d rules, want %d", len(rules), hosts)
		}
	}
}

// BenchmarkDeriveFirewall16k measures a cold Algorithm 2 pass over
// of_firewall holding 4 000 blocked ports, 3 000 blocked /24 nets and
// 3 000 /16 routes: 16 000 rules over its 8 paths. Every rule's output
// port is a longest-prefix match in the route table, so this is the
// derive that exercises appir's prefix index.
func BenchmarkDeriveFirewall16k(b *testing.B) {
	prog, st := apps.OFFirewall()
	experiments.PopulateFirewall(st, 4_000, 3_000, 3_000)
	paths, err := symexec.Explore(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules, err := symexec.DeriveRules(paths, st)
		if err != nil {
			b.Fatal(err)
		}
		if len(rules) != 16_000 {
			b.Fatalf("derived %d rules, want 16 000", len(rules))
		}
	}
}

// BenchmarkDeriveRulesMemo measures the epoch memo's three regimes:
// cold (every path re-solved), warm (no globals moved — pure reuse) and
// churn (one Learn per iteration stales 1/deriveBenchTables of paths).
func BenchmarkDeriveRulesMemo(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		paths, st := syntheticPaths(n)
		b.Run("cold/paths-"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := symexec.NewMemo(paths)
				if _, err := m.Derive(st, symexec.DeriveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("warm/paths-"+strconv.Itoa(n), func(b *testing.B) {
			m := symexec.NewMemo(paths)
			if _, err := m.Derive(st, symexec.DeriveOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Derive(st, symexec.DeriveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("churn/paths-"+strconv.Itoa(n), func(b *testing.B) {
			m := symexec.NewMemo(paths)
			if _, err := m.Derive(st, symexec.DeriveOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Learn("bench0",
					appir.MACValue(netpkt.MACFromUint64(uint64(5000+i))),
					appir.U16Value(uint16(i%47)+1))
				if _, err := m.Derive(st, symexec.DeriveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
