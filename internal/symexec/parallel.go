package symexec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"floodguard/internal/appir"
	"floodguard/internal/solver"
)

// minParallelPaths is the path count below which the pool overhead is
// not worth paying and derivation runs inline.
const minParallelPaths = 8

// minParallelEntries is the state size (State.Entries) below which
// automatic sizing derives inline: over 8 of_firewall paths the pool
// loses ~8 % at ~100 entries and wins ~1.6x at 10 000 (EXPERIMENTS.md).
const minParallelEntries = 1024

// DeriveOptions tunes rule derivation.
type DeriveOptions struct {
	// Workers caps the concurrent path workers. 0 means GOMAXPROCS once
	// the state holds minParallelEntries rows and inline below; 1 forces
	// sequential derivation.
	Workers int
}

// workers resolves o against the state's size.
func (o DeriveOptions) workers(st *appir.State) int {
	switch {
	case o.Workers != 0:
		return o.Workers
	case st.Entries() < minParallelEntries:
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// DeriveRulesOpts is DeriveRules with explicit tuning. Each path's
// concretization is independent, so paths are fanned out over a bounded
// worker pool (each worker with its own solver arena) and the per-path
// results are concatenated in path order — the output is bit-identical
// to a sequential run, whatever the worker count or scheduling.
func DeriveRulesOpts(paths []Path, st *appir.State, opts DeriveOptions) ([]ProactiveRule, error) {
	results := make([][]ProactiveRule, len(paths))
	err := forEachPath(len(paths), opts.workers(st), func(i int, ar *solver.Arena) (err error) {
		results[i], err = derivePath(&paths[i], st, ar)
		return err
	})
	if err != nil {
		return nil, err
	}
	return concatRules(results), nil
}

// concatRules flattens per-path results in path order, preserving the
// sequential convention that no rules means a nil slice. A single
// non-empty result is returned as it is.
func concatRules(results [][]ProactiveRule) []ProactiveRule {
	total, last := 0, -1
	for i, r := range results {
		if len(r) > 0 {
			total += len(r)
			last = i
		}
	}
	switch {
	case total == 0:
		return nil
	case total == len(results[last]):
		return results[last]
	}
	out := make([]ProactiveRule, 0, total)
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// forEachPath calls solve(i, arena) for every i in [0, n) on a bounded
// worker pool, each worker with its own solver arena; solve(i) must
// touch only selection i's result. Every selection is attempted even
// after a failure, so the reported error is deterministic — the first
// failing selection in order, regardless of which worker hit it first.
func forEachPath(n, workers int, solve func(i int, ar *solver.Arena) error) error {
	workers = min(workers, n)
	if workers <= 1 || n < minParallelPaths {
		ar := solver.NewArena()
		for i := 0; i < n; i++ {
			if err := solve(i, ar); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := solver.NewArena()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = solve(i, ar)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
