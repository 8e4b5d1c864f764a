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

// DeriveOptions tunes rule derivation.
type DeriveOptions struct {
	// Workers caps the concurrent path workers. 0 means GOMAXPROCS; 1
	// forces sequential derivation.
	Workers int
}

// DeriveRulesOpts is DeriveRules with explicit tuning. Each path's
// concretization is independent, so paths are fanned out over a bounded
// worker pool (each worker with its own solver arena) and the per-path
// results are concatenated in path order — the output is bit-identical
// to a sequential run, whatever the worker count or scheduling.
func DeriveRulesOpts(paths []Path, st *appir.State, opts DeriveOptions) ([]ProactiveRule, error) {
	results := make([][]ProactiveRule, len(paths))
	err := forEachPath(len(paths), opts.Workers, func(i int, ar *solver.Arena) (err error) {
		results[i], err = derivePath(&paths[i], st, ar)
		return err
	})
	if err != nil {
		return nil, err
	}
	return concatRules(results), nil
}

// concatRules flattens per-path results in path order, preserving the
// sequential convention that no rules means a nil slice.
func concatRules(results [][]ProactiveRule) []ProactiveRule {
	total := 0
	for _, r := range results {
		total += len(r)
	}
	if total == 0 {
		return nil
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
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
