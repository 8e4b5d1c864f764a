package experiments

import (
	"fmt"
	"testing"

	"floodguard/internal/soak"
	"floodguard/internal/telemetry"
)

// TestTCPEvidenceBoundNeverBinds is the witness that the shards' TCP
// evidence bound (attrib.Config.TCPMaxSources per shard between two
// Flushes) leaves every pinned output alone: on the golden soaks, the
// synflood sweep's guarded cells and the CI soak scenario the bound
// turns no verdict away. A source that arrives at a full table is turned
// away or evicts one, and either counts a dropped verdict, so no shard
// ever held more sources than the bound and those outputs are the
// unbounded path's by construction.
func TestTCPEvidenceBoundNeverBinds(t *testing.T) {
	type run struct {
		name string
		cfg  soak.Config
	}
	var runs []run
	for _, shards := range []int{1, 2, 4} {
		cfg := goldenSoakConfig()
		cfg.Shards = shards
		runs = append(runs, run{fmt.Sprintf("golden soak, %d shards", shards), cfg})
	}
	for _, rate := range SynFloodRates {
		cfg, err := soak.ParseScenario(synfloodScenario(goldenSeed, rate, true))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{fmt.Sprintf("synflood %g pps", rate), cfg})
	}
	cfg, err := soak.ParseScenario("duration=5s,flows=100000,profile=all,shards=2," +
		"chaos=on,tcpguard=on,synflood=2000,tcp_conns=200")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 0xF100D
	runs = append(runs, run{"CI guarded soak", cfg})

	for _, r := range runs {
		r.cfg.Registry = telemetry.NewRegistry()
		if _, err := soak.Run(r.cfg); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		seen := false
		for _, m := range r.cfg.Registry.Snapshot().Metrics {
			if m.Name == "fg_soak_attrib_tcp_verdicts_dropped_total" {
				seen = true
				if m.Value != 0 {
					t.Errorf("%s: the bound dropped %v verdicts", r.name, m.Value)
				}
			}
		}
		if !seen {
			t.Fatalf("%s: no dropped-verdicts series on the registry", r.name)
		}
	}
}
