package floodguard_test

// Attack-time rule derivation at scale: the Algorithm 2 worker pool and
// the epoch memo, measured over synthetic path sets of 10²–10⁴ paths.
// The synthetic paths follow the shape the bundled apps produce — a
// table-membership condition plus an install template whose port is a
// table lookup — so every derivation does real solver enumeration work.

import (
	"runtime"
	"testing"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
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
		name := "bench" + itoa(t)
		for i := 0; i < 16; i++ {
			st.Learn(name,
				appir.MACValue(netpkt.MACFromUint64(uint64(t*100+i+1))),
				appir.U16Value(uint16(i%47)+1))
		}
	}
	paths := make([]symexec.Path, n)
	for i := range paths {
		table := "bench" + itoa(i%deriveBenchTables)
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
		for _, workers := range []int{1, 4} {
			name := "paths-" + itoa(n) + "/workers-" + itoa(workers)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := symexec.DeriveRulesOpts(paths, st,
						symexec.DeriveOptions{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDeriveL2Learning10k measures the derive the mitigation moment
// runs: a cold Algorithm 2 pass over l2_learning's explored paths with
// 10⁴ learned MACs, yielding one dl_dst rule per MAC. Its table-driven
// path carries every entry, so unlike syntheticPaths (≥ 8 paths, a few
// entries each) it reaches the entry-shaped case and never the path
// pool.
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
		rules, err := symexec.DeriveRulesOpts(paths, st, symexec.DeriveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rules) != hosts {
			b.Fatalf("derived %d rules, want %d", len(rules), hosts)
		}
	}
}

// BenchmarkDeriveRulesSpeedup pins the worker-pool acceptance bar:
// parallel derivation at 10³ paths must be ≥3× faster than sequential.
// The bar only means anything with real cores to fan across, so it is
// skipped below 4 CPUs (single-core boxes measure pure pool overhead).
func BenchmarkDeriveRulesSpeedup(b *testing.B) {
	if runtime.NumCPU() < 4 {
		b.Skipf("need >= 4 CPUs for a meaningful speedup bar, have %d", runtime.NumCPU())
	}
	paths, st := syntheticPaths(1000)
	measure := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			if _, err := symexec.DeriveRulesOpts(paths, st,
				symexec.DeriveOptions{Workers: workers}); err != nil {
				b.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	measure(1) // warm caches before timing
	seq := measure(1)
	par := measure(runtime.NumCPU())
	speedup := float64(seq) / float64(par)
	b.ReportMetric(speedup, "speedup")
	if speedup < 3 {
		b.Errorf("parallel speedup %.2fx at 1000 paths on %d CPUs, want >= 3x",
			speedup, runtime.NumCPU())
	}
	for i := 0; i < b.N; i++ {
		_, _ = symexec.DeriveRulesOpts(paths, st,
			symexec.DeriveOptions{Workers: runtime.NumCPU()})
	}
}

// BenchmarkDeriveRulesMemo measures the epoch memo's three regimes:
// cold (every path re-solved), warm (no globals moved — pure reuse) and
// churn (one Learn per iteration stales 1/deriveBenchTables of paths).
func BenchmarkDeriveRulesMemo(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		paths, st := syntheticPaths(n)
		b.Run("cold/paths-"+itoa(n), func(b *testing.B) {
			m := symexec.NewMemo(paths)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Invalidate()
				if _, err := m.Derive(st, symexec.DeriveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("warm/paths-"+itoa(n), func(b *testing.B) {
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
		b.Run("churn/paths-"+itoa(n), func(b *testing.B) {
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
