// Command fgsim regenerates the paper's evaluation artefacts: every
// figure and table of §V plus the §II baseline. Each experiment runs the
// Figure 9 topology on the deterministic discrete-event engine and prints
// the series the paper reports.
//
// Usage:
//
//	fgsim <experiment> [flags]
//
// Experiments: sec2-baseline, fig10, fig11, fig12, fig13, tab3, tab4,
// compare, chaos, attrib, sweep, soak, synflood, all
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"floodguard/internal/experiments"
	"floodguard/internal/soak"
	"floodguard/internal/telemetry"
)

var (
	asCSV       bool
	windowsCSV  string
	journalPath string
	metricsReg  *telemetry.Registry
)

func main() {
	trials := flag.Int("trials", 5, "probe flows for tab4")
	iters := flag.Int("iters", 50, "derivation repetitions for fig13")
	seed := flag.Int64("seed", 0xF100D, "flap schedule seed for chaos and the soak generators")
	flaps := flag.Int("flaps", 8, "sideband outages for chaos")
	shards := flag.Int("shards", 0, "sweep workers (merged output is shard-count invariant) and soak engine shards; 0 keeps each one's default (1 sweep worker, 4 soak shards)")
	duration := flag.Duration("duration", 5*time.Second, "simulated soak length")
	flows := flag.Int("flows", 100_000, "benign distinct-flow population for soak")
	profile := flag.String("profile", "all", "soak attacker profile: ramp, pulse, rotate, slow, or all")
	scenario := flag.String("scenario", "", "extra soak scenario terms (key=value,... ; overrides the soak flags)")
	flag.BoolVar(&asCSV, "csv", false, "emit machine-readable CSV (fig10/fig11/fig12/fig13/sec2-baseline/compare/chaos/attrib/sweep/soak/synflood)")
	metricsAddr := flag.String("metrics", "", "serve live telemetry on this address (/metrics, /metrics.json, /debug/pprof); held open after the run until interrupted")
	metricsCSV := flag.String("metrics-csv", "", "append periodic registry dumps (elapsed_ms,name,value rows) to this file")
	flag.StringVar(&windowsCSV, "windows-csv", "", "write the chaos run's per-window telemetry rows to this file")
	flag.StringVar(&journalPath, "journal", "", "arm the soak decision journal and write the flight-recorder JSONL dump to this file (inspect with: fganalyze journal)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	var reg *telemetry.Registry
	hold := false
	if *metricsAddr != "" || *metricsCSV != "" {
		reg = telemetry.NewRegistry()
		experiments.SetRegistry(reg)
		metricsReg = reg
	}
	if *metricsAddr != "" {
		ln, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fgsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fgsim: telemetry on http://%v/metrics\n", ln.Addr())
		hold = true
	}
	if *metricsCSV != "" {
		f, err := os.Create(*metricsCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fgsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		start := time.Now()
		stop := make(chan struct{})
		defer func() {
			close(stop)
			_ = reg.DumpCSV(f, time.Since(start)) // final dump after the run
		}()
		go func() {
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = reg.DumpCSV(f, time.Since(start))
				}
			}
		}()
	}

	if err := run(flag.Arg(0), *trials, *iters, *seed, *flaps, *shards,
		*duration, *flows, *profile, *scenario); err != nil {
		fmt.Fprintln(os.Stderr, "fgsim:", err)
		os.Exit(1)
	}
	if hold {
		fmt.Fprintln(os.Stderr, "fgsim: run complete; telemetry endpoint still live (Ctrl-C to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fgsim [flags] <experiment>

experiments:
  sec2-baseline   §II: software switch collapse under table-miss UDP flood
  fig10           bandwidth vs attack rate, software environment
  fig11           bandwidth vs attack rate, hardware environment
  fig12           per-app CPU utilization timeline under attack (with FloodGuard)
  fig13           proactive flow rule generation overhead per application
  tab3            state-sensitive variables per application
  tab4            average first-packet delay (OpenFlow vs FloodGuard)
  compare         FloodGuard vs AvantGuard vs no defense, per flood protocol
  chaos           seeded sideband flaps mid-Defense: degraded drops and recovery
  attrib          collateral damage to benign traffic: blanket vs selective migration
  sweep           multi-seed bandwidth sweep sharded across -shards workers
  soak            adversarial soak: zipfian flows + adaptive attackers + chaos,
                  invariants asserted every window (-duration/-flows/-profile/-scenario)
  synflood        TCP SYN-flood sweep: benign handshake completion and controller
                  packet_ins with the SYN-proxy tier off vs on at each attack rate
  all             run everything in paper order

flags:`)
	flag.PrintDefaults()
}

func run(name string, trials, iters int, seed int64, flaps, shards int,
	duration time.Duration, flows int, profile, scenario string) error {
	switch name {
	case "sec2-baseline":
		return sec2()
	case "fig10":
		return fig10()
	case "fig11":
		return fig11()
	case "fig12":
		return fig12()
	case "fig13":
		return fig13(iters)
	case "tab3":
		return tab3()
	case "tab4":
		return tab4(trials)
	case "compare":
		return compare()
	case "chaos":
		return chaos(seed, flaps)
	case "attrib":
		return attribExp(seed)
	case "sweep":
		return sweep(shards)
	case "soak":
		return soakRun(seed, shards, duration, flows, profile, scenario)
	case "synflood":
		return synflood(seed)
	case "all":
		for _, fn := range []func() error{
			sec2, fig10, fig11, fig12,
			func() error { return fig13(iters) },
			tab3,
			func() error { return tab4(trials) },
			compare,
			func() error { return chaos(seed, flaps) },
			func() error { return attribExp(seed) },
			func() error { return sweep(shards) },
			func() error { return soakRun(seed, shards, duration, flows, profile, scenario) },
			func() error { return synflood(seed) },
		} {
			if err := fn(); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (try: fgsim -h)", name)
	}
}

func sec2() error {
	pts, err := experiments.RunSec2Baseline()
	if err != nil {
		return err
	}
	if asCSV {
		return experiments.WriteCSVCollapse(os.Stdout, pts)
	}
	experiments.PrintCollapse(os.Stdout, pts)
	return nil
}

func fig10() error {
	r, err := experiments.RunFig10()
	if err != nil {
		return err
	}
	if asCSV {
		return r.WriteCSV(os.Stdout)
	}
	r.Print(os.Stdout)
	return nil
}

func fig11() error {
	r, err := experiments.RunFig11()
	if err != nil {
		return err
	}
	if asCSV {
		return r.WriteCSV(os.Stdout)
	}
	r.Print(os.Stdout)
	return nil
}

func fig12() error {
	r, err := experiments.RunFig12()
	if err != nil {
		return err
	}
	if asCSV {
		return r.WriteCSV(os.Stdout)
	}
	r.Print(os.Stdout)
	return nil
}

func fig13(iters int) error {
	costs, err := experiments.RunFig13(iters)
	if err != nil {
		return err
	}
	if asCSV {
		return experiments.WriteCSVFig13(os.Stdout, costs)
	}
	experiments.PrintFig13(os.Stdout, costs)
	return nil
}

func tab3() error {
	rows, err := experiments.RunTable3()
	if err != nil {
		return err
	}
	experiments.PrintTable3(os.Stdout, rows)
	return nil
}

func compare() error {
	cells, err := experiments.RunComparison(300)
	if err != nil {
		return err
	}
	if asCSV {
		return experiments.WriteCSVComparison(os.Stdout, cells)
	}
	experiments.PrintComparison(os.Stdout, cells, 300)
	return nil
}

func tab4(trials int) error {
	r, err := experiments.RunTab4(trials)
	if err != nil {
		return err
	}
	r.Print(os.Stdout)
	return nil
}

func attribExp(seed int64) error {
	r, err := experiments.RunAttrib(seed, nil)
	if err != nil {
		return err
	}
	if asCSV {
		return r.WriteCSV(os.Stdout)
	}
	r.Print(os.Stdout)
	return nil
}

func sweep(shards int) error {
	cfg := experiments.DefaultSweep()
	if shards > 0 {
		cfg.Shards = shards
	}
	r, err := experiments.RunSweep(cfg)
	if err != nil {
		return err
	}
	if asCSV {
		return r.WriteCSV(os.Stdout)
	}
	r.Print(os.Stdout)
	return nil
}

// soakRun assembles the scenario string from the dedicated flags (the
// -scenario terms come last, so they win) and hands it to the same
// parser the fuzz tier hammers; a run with invariant violations exits
// nonzero so CI smoke catches regressions.
func soakRun(seed int64, shards int, duration time.Duration, flows int, profile, scenario string) error {
	terms := []string{
		fmt.Sprintf("seed=%d", seed),
		fmt.Sprintf("duration=%v", duration),
		fmt.Sprintf("flows=%d", flows),
		fmt.Sprintf("profile=%s", profile),
	}
	if shards > 0 {
		terms = append(terms, fmt.Sprintf("shards=%d", shards))
	}
	if scenario != "" {
		terms = append(terms, scenario)
	}
	cfg, err := soak.ParseScenario(strings.Join(terms, ","))
	if err != nil {
		return err
	}
	cfg.Registry = metricsReg
	if journalPath != "" {
		cfg.Journal = true
	}
	res, err := soak.Run(cfg)
	if err != nil {
		return err
	}
	if journalPath != "" {
		if err := os.WriteFile(journalPath, res.JournalDump, 0o644); err != nil {
			return fmt.Errorf("write journal dump: %w", err)
		}
		fmt.Fprintf(os.Stderr, "fgsim: journal dump (%d bytes) written to %s\n", len(res.JournalDump), journalPath)
	}
	if asCSV {
		if err := experiments.WriteSoakCSV(os.Stdout, res.Windows); err != nil {
			return err
		}
		res.Print(os.Stderr)
	} else {
		res.Print(os.Stdout)
	}
	if n := len(res.Violations); n > 0 {
		for i, v := range res.Violations {
			if i >= 10 {
				fmt.Fprintf(os.Stderr, "fgsim: ... and %d more violations\n", n-i)
				break
			}
			fmt.Fprintf(os.Stderr, "fgsim: invariant violation: %s\n", v)
		}
		return fmt.Errorf("soak: %d invariant violations", n)
	}
	return nil
}

// synflood runs the TCP tier's off-vs-on sweep; the -seed flag keys
// every cell, so two runs with the same seed emit byte-identical CSV
// (the CI determinism smoke compares the bytes).
func synflood(seed int64) error {
	r, err := experiments.RunSynFlood(seed)
	if err != nil {
		return err
	}
	if asCSV {
		return r.WriteCSV(os.Stdout)
	}
	r.Print(os.Stdout)
	return nil
}

func chaos(seed int64, flaps int) error {
	r, err := experiments.RunChaos(seed, flaps)
	if err != nil {
		return err
	}
	if windowsCSV != "" {
		f, err := os.Create(windowsCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteCSVWindows(f, r.Windows); err != nil {
			return err
		}
	}
	if asCSV {
		return r.WriteCSV(os.Stdout)
	}
	r.Print(os.Stdout)
	return nil
}
