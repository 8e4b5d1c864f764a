// Command bench is the repository's one benchmark: five named
// workloads, wire bytes in to packet_in bytes out and attack start to
// last proactive rule live, with a per-layer trace. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (JSON)
//	bench [-trace] [-smoke] [-seed N] -out FILE            every workload, one table, one result file
//	bench -selfcheck [-seed N]                             two sets on the same code must agree within the bounds
//	bench -compare OLD.json NEW.json [-force]              per-workload, per-metric deltas against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// devSeed is the development seed; heldOutSeed is the one no workload
// was tuned on (see README.md).
const (
	devSeed     = 0xF100D
	heldOutSeed = 0xBE7C4
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the result as the last line")
		seedStr   = flag.String("seed", strconv.Itoa(devSeed), "input seed (decimal or 0x hex)")
		seconds   = flag.Float64("seconds", 10, "timed interval of the wall-clock workloads, seconds")
		traceStr  = flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics")
		smoke     = flag.Bool("smoke", false, "tiny sizes, ~0.3 s per workload: exercises the harness, measures nothing")
		out       = flag.String("out", "", "write the result file of an all-workloads run here")
		outDir    = flag.String("outdir", filepath.Join("bench", "out"), "directory for span dumps and per-run detail")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets and fail if any end-to-end metric differs by more than its bound")
		compare   = flag.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
		force     = flag.Bool("force", false, "with -compare: compare even across unlike hardware")
		detail    = flag.String("detail", "", "write the run's full detail (checks, timings) to this file")
	)
	flag.Parse()
	seed, err := strconv.ParseInt(*seedStr, 0, 64)
	if err != nil {
		fatal(fmt.Errorf("bad -seed %q: %w", *seedStr, err))
	}
	trace := *traceStr == "1" || *traceStr == "true"

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare OLD.json NEW.json [-force]"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *force)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		runtime.GOMAXPROCS(benchProcs())
		res, err := runOne(*workload, runCtx{Seed: seed, Seconds: *seconds, Smoke: *smoke}, trace, *outDir)
		if err != nil {
			fatal(err)
		}
		if *detail != "" {
			if err := writeJSON(*detail, res); err != nil {
				fatal(err)
			}
		}
		printRun(res, trace)
	case *selfcheck:
		ok, err := selfCheck(seed, *seconds, *smoke, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		set, err := runSet(seed, *seconds, *smoke, trace, *outDir)
		if err != nil {
			fatal(err)
		}
		printSet(set)
		if *out != "" {
			if err := writeJSON(*out, set); err != nil {
				fatal(err)
			}
		}
		if !set.correct() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// measure dispatches one workload run.
func measure(name string, ctx runCtx) (*runResult, error) {
	switch name {
	case "wire_benign", "wire_flood", "flood_install":
		return runWire(name, ctx)
	case "soak_adaptive":
		return runSoak(ctx)
	case "paper_defense":
		return runPaper(ctx)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOne is one driver-shaped run. Untraced, it measures the workload
// once and reports the end-to-end metrics. Traced, it measures it twice
// — spans off, then spans on, so the end-to-end numbers still come from
// an untraced run and the difference is the tracing overhead — then
// runs the staged replica for the busy-time layer rows and dumps the
// spans.
func runOne(name string, ctx runCtx, trace bool, outDir string) (*runResult, error) {
	if !trace {
		res, err := measure(name, ctx)
		if err != nil {
			return nil, err
		}
		res.E2E.set("peak_rss_mb", peakRSSMB())
		return res, nil
	}
	closedLoop := name == "wire_benign" || name == "wire_flood"
	if closedLoop {
		ctx.Seconds /= 2 // two timed passes in one run
	}
	res, err := measure(name, ctx)
	if err != nil {
		return nil, err
	}
	res.E2E.set("peak_rss_mb", peakRSSMB())
	tctx := ctx
	tctx.Tracer = newTracer()
	traced, err := measure(name, tctx)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	res.addChecks(traced.Checks)
	res.Layer.set("bench.trace_overhead_share", 1-traced.Rate/res.Rate)

	switch name {
	case "wire_benign", "wire_flood", "flood_install":
		budget := 1500 * time.Millisecond
		if ctx.Smoke {
			budget = 50 * time.Millisecond
		}
		if err := stagedWire(wireWorkload(name, ctx), ctx.Seed, res.Rate, budget, tctx.Tracer, res.Layer); err != nil {
			return nil, err
		}
	case "soak_adaptive":
		stagedSoak(ctx.Seed, ctx.Smoke, tctx.Tracer, res.Layer)
	}
	if err := writeSpans(outDir, name, tctx.Tracer.all()); err != nil {
		return nil, err
	}
	return res, nil
}

// driverLine is the contract's last line of output.
type driverLine struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// printRun prints one run: every metric by name with its unit, the
// failed-operation accounting, the checks, and — last — the driver's
// JSON line. Failed counts only hard failures there: the open loop's
// ingress refusals are the workload's design and are carried by
// ok_share (and rtc.ingress_refused_share) instead.
func printRun(res *runResult, trace bool) {
	printMetrics(res, trace)
	line := driverLine{Correct: res.correct(), Attempted: max(res.Attempted, 1), Failed: res.hardFailed(), Metrics: res.E2E}
	if trace {
		line.Metrics = res.Layer
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func printMetrics(res *runResult, layers bool) {
	fmt.Printf("== %s\n", res.Workload)
	for _, d := range endToEnd {
		note := ""
		if !d.nativeOn(res.Workload) {
			note = "   (not measured on this workload: neutral or carried reading)"
		}
		fmt.Printf("  %-28s %16.6g %s%s\n", d.Name, res.E2E[d.Name].Value, d.Unit, note)
	}
	fmt.Printf("  failed_share = (%d refused + %d failed) / %d attempted = %.6f\n",
		res.Refused, res.hardFailed(), res.Attempted, 1-res.okShare())
	names := make([]string, 0, len(res.Timings))
	for k := range res.Timings {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		t := res.Timings[k]
		fmt.Printf("  timing %-21s p50 %.6g  p%.6g %.6g  n=%d\n", k, t.P50, t.TailQ*100, t.TailVal, t.N)
	}
	if layers {
		for _, d := range perLayer {
			fmt.Printf("  %-28s %16.6g %-6s -> %s on %s\n", d.Name, res.Layer[d.Name].Value, d.Unit, d.Moves, d.On)
		}
	}
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Printf("  check %s %-32s %s\n", mark, c.Name, c.Detail)
	}
}

// resultSet is a result file: every workload of one run of the
// benchmark, with the context it was measured in.
type resultSet struct {
	Env     environment  `json:"environment"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Smoke   bool         `json:"smoke,omitempty"`
	Traced  bool         `json:"traced"`
	Results []*runResult `json:"results"`
}

func (s *resultSet) correct() bool {
	for _, r := range s.Results {
		if !r.correct() {
			return false
		}
	}
	return true
}

func (s *resultSet) find(name string) *runResult {
	for _, r := range s.Results {
		if r.Workload == name {
			return r
		}
	}
	return nil
}

// runChild runs one workload in a child process of this same binary,
// invoked exactly as the driver invokes it — so peak RSS, GOMAXPROCS and
// heap state are per run and the numbers mean the same thing in every
// mode — and reads the run's detail back.
func runChild(name string, seed int64, seconds float64, smoke, trace bool, outDir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	detail := filepath.Join(outDir, name+".detail.json")
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0",
		"-outdir", outDir, "-detail", detail}
	if trace {
		args[7] = "1"
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	b, err := os.ReadFile(detail)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var res runResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &res, nil
}

// runSet runs every workload once.
func runSet(seed int64, seconds float64, smoke, trace bool, outDir string) (*resultSet, error) {
	set := &resultSet{Env: readEnvironment(), Seed: seed, Seconds: seconds, Smoke: smoke, Traced: trace}
	for _, w := range workloads {
		res, err := runChild(w.Name, seed, seconds, smoke, trace, outDir)
		if err != nil {
			return nil, err
		}
		set.Results = append(set.Results, res)
	}
	return set, nil
}

func printSet(set *resultSet) {
	e := set.Env
	fmt.Printf("environment: %s, nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s, seed %#x\n",
		e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.Commit, set.Seed)
	for _, r := range set.Results {
		printMetrics(r, set.Traced)
	}
}
