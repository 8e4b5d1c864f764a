package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(d e2eDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints one row per workload and end-to-end metric: both
// values, the change, the bound, and a verdict. With symmetric set it
// flags a difference in either direction (the self-check's rule: the
// same code must agree with itself); otherwise only a worsening beyond
// the bound. It returns whether every row passed.
func compareSets(w io.Writer, a, b *resultSet, symmetric bool) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-20s %16s %16s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse%", "bound%", "verdict")
	for _, wl := range workloads {
		ra, rb := a.find(wl.Name), b.find(wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-14s missing from one side\n", wl.Name)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.E2E[d.Name].Value, rb.E2E[d.Name].Value
			worse := worsening(d, va, vb)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSED"
				ok = false
			case symmetric && -worse > d.Bound:
				verdict = "DIFFERS"
				ok = false
			case -worse > d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-14s %-20s %16.6g %16.6g %+9.2f %7.1f  %s\n",
				wl.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}

// compareFiles is -compare: it refuses unlike hardware unless forced.
func compareFiles(w io.Writer, oldPath, newPath string, force bool) (bool, error) {
	a, err := loadSet(oldPath)
	if err != nil {
		return false, err
	}
	b, err := loadSet(newPath)
	if err != nil {
		return false, err
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NumCPU != b.Env.NumCPU {
		fmt.Fprintf(w, "unlike hardware: %q x%d vs %q x%d\n", a.Env.CPUModel, a.Env.NumCPU, b.Env.CPUModel, b.Env.NumCPU)
		if !force {
			return false, fmt.Errorf("refusing to compare results from unlike hardware (use -force)")
		}
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Smoke != b.Smoke {
		fmt.Fprintf(w, "note: settings differ (seed %#x/%#x, seconds %g/%g, smoke %v/%v)\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Smoke, b.Smoke)
	}
	return compareSets(w, a, b, false), nil
}

// exactMetrics come out of virtual time: two runs of the same code and
// seed must agree to the last bit.
var exactMetrics = []string{"detect_ms", "goodput_retained", "first_pkt_delay_ms"}

// selfCheckRuns is how many runs each side of the self-check takes its
// medians over.
const selfCheckRuns = 3

// selfCheck is -selfcheck: two full sets on the same code. Each set's
// value is the median of selfCheckRuns runs, and the two sets' runs
// alternate (A B A B A B per workload), so that a box whose speed drifts
// over minutes — the reference box does, by 10–20 % — slows both sides
// alike.
func selfCheck(seed int64, seconds float64, smoke bool, outDir string) (bool, error) {
	env := readEnvironment()
	var sets [2]*resultSet
	for i := range sets {
		sets[i] = &resultSet{Env: env, Seed: seed, Seconds: seconds, Smoke: smoke}
	}
	for _, w := range workloads {
		var runs [2][]*runResult
		for r := 0; r < selfCheckRuns; r++ {
			for i := range sets {
				res, err := runChild(w.Name, seed, seconds, smoke, false, outDir)
				if err != nil {
					return false, err
				}
				runs[i] = append(runs[i], res)
			}
		}
		for i := range sets {
			sets[i].Results = append(sets[i].Results, medianRun(runs[i]))
		}
	}
	fmt.Printf("self-check, seed %#x: two sets of the same code, each the median of %d alternating runs\n", seed, selfCheckRuns)
	ok := compareSets(os.Stdout, sets[0], sets[1], true)
	for _, r := range sets[0].Results {
		other := sets[1].find(r.Workload)
		for _, name := range exactMetrics {
			if a, b := r.E2E[name].Value, other.E2E[name].Value; a != b {
				fmt.Printf("%-14s %-20s not bit-identical: %v vs %v\n", r.Workload, name, a, b)
				ok = false
			}
		}
	}
	if !sets[0].correct() || !sets[1].correct() {
		fmt.Println("a correctness check failed")
		ok = false
	}
	if ok {
		fmt.Println("self-check passed: every end-to-end metric agrees within its bound")
	}
	return ok, nil
}

// medianRun folds several runs of one workload into one: every
// end-to-end metric at its median, the checks of all of them.
func medianRun(runs []*runResult) *runResult {
	out := newResult(runs[0].Workload)
	for _, d := range endToEnd {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.E2E[d.Name].Value
		}
		out.E2E.set(d.Name, median(vals))
	}
	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Refused += r.Refused
		out.Checks = append(out.Checks, r.Checks...)
	}
	return out
}
