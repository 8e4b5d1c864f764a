package experiments

// Golden tier: the seeded outputs a refactor must leave byte-identical,
// rendered in-process through the same writers `fgsim -csv` uses and
// compared with testdata/golden/. Every config field that shapes an
// output is pinned here (no flag defaults, no GOMAXPROCS-derived shard
// counts). There is no -update flag: a failing case writes the bytes it
// got to a directory it names, and regenerating is copying that file
// over the golden.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"floodguard/internal/soak"
	"floodguard/internal/switchsim"
)

const goldenSeed = 0xF100D

// goldenSoakConfig is the soak whose CSV and journal dump are pinned:
// every adaptive attacker, chaos, the SYN-proxy tier under a SYN flood
// with benign handshakes.
func goldenSoakConfig() soak.Config {
	return soak.Config{
		Seed:        goldenSeed,
		Duration:    5 * time.Second,
		Window:      100 * time.Millisecond,
		Flows:       100_000,
		HotFlows:    256,
		Ports:       8,
		Shards:      2,
		Profile:     soak.ProfileAll,
		BenignPPS:   40_000,
		Chaos:       true,
		TCPGuardOn:  true,
		SynFloodPPS: 2000,
		TCPConns:    200,
		Journal:     true,
	}
}

// goldenHeader records the architecture the goldens were taken on:
// fused multiply-add on other architectures changes float results, so
// the comparison is only meaningful on the same one.
func goldenHeader() string { return "# goarch=" + runtime.GOARCH + "\n" }

// checkGolden compares got (prefixed with the arch header) with
// testdata/golden/name, reporting the first differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	head, _, _ := strings.Cut(string(want), "\n")
	if head+"\n" != goldenHeader() {
		t.Skipf("%s was recorded with %q; this is %s — float results differ across architectures", path, head, runtime.GOARCH)
	}
	got = append([]byte(goldenHeader()), got...)
	if bytes.Equal(got, want) {
		return
	}
	dir, err := os.MkdirTemp("", "fg-golden-")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, name)
	if err := os.WriteFile(out, got, 0o644); err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s differs at line %d\n got:  %s\n want: %s\nfull output written to %s (copy it over %s only if the change is intended)",
				name, i+1, g, w, out, path)
			return
		}
	}
}

// paperGolden renders the paper stack's own outputs: one seeded Figure 10
// software sweep — benign bits per (rate, guard) point plus the counts
// behind core.rules_installed, controller.packet_ins and
// switchsim.misses, measured as the paper_defense workload measures a
// point — followed by the Table IV delays.
func paperGolden() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("attack_pps,floodguard,bits,rules_installed,packet_ins,misses\n")
	profile := switchsim.SoftwareProfile()
	for _, rate := range Fig10Rates {
		for _, fg := range []bool{false, true} {
			tb, err := NewTestbed(TestbedConfig{
				Profile:            profile,
				WithFloodGuard:     fg,
				GuardConfig:        DefaultGuardConfig(),
				ControllerBaseCost: 200 * time.Microsecond,
				FloodSeed:          goldenSeed,
			})
			if err != nil {
				return nil, err
			}
			tb.WarmUp()
			if rate > 0 {
				tb.Flooder.Start(rate)
			}
			share, _ := tb.measure(bandwidthSamples)
			rules := 0
			if tb.Guard != nil {
				rules = tb.Guard.Analyzer().InstalledCount()
			}
			fmt.Fprintf(&buf, "%.0f,%v,%s,%d,%d,%d\n", rate, fg,
				fullFloat(share*profile.DataRateBits),
				rules, tb.Ctrl.PacketIns(), tb.Switch.Stats().Missed)
			tb.Close()
		}
	}
	tab4, err := RunTab4(5)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "tab4_ns,baseline=%d,no_guard=%d/%v,guarded=%d,cache=%d,after_migration=%d\n",
		tab4.Baseline, tab4.UnderAttackNoGuard, tab4.NoGuardDelivered,
		tab4.Guarded, tab4.CacheResidence, tab4.AfterMigration)
	return buf.Bytes(), nil
}

func TestGoldenOutputs(t *testing.T) {
	// The golden soak at its own two shards, at one (the soak_adaptive
	// workload's shard count) and at four: the shard count must not leak
	// into the output.
	for _, sc := range []struct {
		name   string
		shards int
	}{{"soak", 2}, {"soak1", 1}, {"soak4", 4}} {
		t.Run(sc.name, func(t *testing.T) {
			cfg := goldenSoakConfig()
			cfg.Shards = sc.shards
			res, err := soak.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Violations); n > 0 {
				t.Fatalf("%d invariant violations, first: %s", n, res.Violations[0])
			}
			var buf bytes.Buffer
			if err := WriteSoakCSV(&buf, res.Windows); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, sc.name+".csv", buf.Bytes())
			// The dump is tens of kB of JSONL; its digest and length are the golden.
			checkGolden(t, sc.name+".journal.sum",
				[]byte(fmt.Sprintf("sha256=%x len=%d\n", sha256.Sum256(res.JournalDump), len(res.JournalDump))))
		})
	}
	type csvWriter = interface{ WriteCSV(io.Writer) error }
	csvCase := func(name string, run func() (csvWriter, error)) {
		t.Run(name, func(t *testing.T) {
			r, err := run()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".csv", buf.Bytes())
		})
	}
	csvCase("attrib", func() (csvWriter, error) { return RunAttrib(goldenSeed, []float64{40, 80, 160}) })
	csvCase("sweep", func() (csvWriter, error) {
		cfg := DefaultSweep()
		cfg.Shards = 2
		return RunSweep(cfg)
	})
	csvCase("synflood", func() (csvWriter, error) { return RunSynFlood(goldenSeed) })
	// The paper stack: Figures 10-12 and Table IV run on the virtual
	// clock with fixed flood seeds and a modelled derivation latency, so
	// a change to core, symexec or the simulated switch cannot move the
	// reproduction silently. (Figure 13 times wall-clock derivations and
	// is not pinned.)
	t.Run("paper", func(t *testing.T) {
		got, err := paperGolden()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "paper.csv", got)
	})
	csvCase("fig11", func() (csvWriter, error) { return RunFig11() })
	csvCase("fig12", func() (csvWriter, error) { return RunFig12() })
	// §II, §III and the chaos run, at full precision: the fgsim -csv
	// writers round to a few decimals, which would hide drift.
	t.Run("sec2", func(t *testing.T) {
		pts, err := RunSec2Baseline()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString("attack_pps,goodput_share,buffer_used,amplified_ins,packet_ins\n")
		for _, p := range pts {
			fmt.Fprintf(&buf, "%s,%s,%d,%d,%d\n", fullFloat(p.AttackPPS), fullFloat(p.GoodputShare),
				p.BufferUsed, p.AmplifiedIns, p.PacketIns)
		}
		checkGolden(t, "sec2.csv", buf.Bytes())
	})
	t.Run("compare", func(t *testing.T) {
		cells, err := RunComparison(300)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString("defense,flood,goodput_share,packet_in_rate_pps\n")
		for _, c := range cells {
			fmt.Fprintf(&buf, "%s,%s,%s,%s\n", c.Defense, c.Flood, fullFloat(c.GoodputShare), fullFloat(c.PacketInRate))
		}
		checkGolden(t, "compare.csv", buf.Bytes())
	})
	t.Run("chaos", func(t *testing.T) {
		r, err := RunChaos(goldenSeed, 8)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString("flap,at_ns,down_ns,degraded_drops,recovery_ns\n")
		for _, f := range r.Flaps {
			fmt.Fprintf(&buf, "%d,%d,%d,%d,%d\n", f.Index, f.At, f.Down, f.Drops, f.Recovery)
		}
		fmt.Fprintf(&buf, "degraded_entries=%d,degraded_drops=%d,replayed=%d,drain_ns=%d,drained=%v\ncache=%+v\n",
			r.DegradedEntries, r.DegradedDrops, r.Replayed, r.DrainTime, r.Drained, r.Cache)
		if err := WriteCSVWindows(&buf, r.Windows); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "chaos.csv", buf.Bytes())
	})
}

func fullFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
