package soak

// Differential tier: the sharded run-to-completion engine and the
// sequential reference model (reference_test.go) must tell the same
// story when driven with the same seeded scenario — every WindowStats
// field equal at every window barrier, identical attribution verdicts —
// at 1, 2 and 4 shards, with the SYN-proxy tier off and on, and once at
// the configuration the soak_adaptive benchmark workload runs.
// HeavyHitterFrac is pinned near 1 so the drop-time hint reduces to the
// port and handshake verdicts: the reference feeds the source sketch
// per packet where the engine merges it at barriers, so a mid-window
// heavy-hitter estimate legitimately differs between the two.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func diffCfg(shards int, guard bool) Config {
	cfg := Config{
		Seed:            0xD1FF,
		Duration:        2 * time.Second,
		Window:          100 * time.Millisecond,
		Flows:           20_000,
		HotFlows:        128,
		Ports:           8,
		Shards:          shards,
		Profile:         ProfileAll,
		BenignPPS:       20_000,
		Chaos:           true,
		HeavyHitterFrac: 0.99,
		// Barrier rule churn rides along so the differential also covers
		// the shard-owned apply path: the engine applies each flow_mod to
		// its owning shard's partition, the reference mutates its one
		// table, and TableRules must agree every window.
		FlowModsPerWindow: 16,
	}
	if guard {
		cfg.TCPGuardOn = true
		cfg.SynFloodPPS = 2000
		cfg.SlowShakePPS = 200
		cfg.MalformedPPS = 300
		cfg.TCPConns = 200
	}
	return cfg
}

// benchSoakCfg is soak_adaptive's own scenario (bench/workload_soak.go)
// at 3 virtual seconds — unpinned heavy-hitter fraction included.
func benchSoakCfg() Config {
	return Config{
		Seed:        0xF100D,
		Duration:    3 * time.Second,
		Window:      100 * time.Millisecond,
		Flows:       100_000,
		Shards:      1,
		Profile:     ProfileAll,
		Chaos:       true,
		TCPGuardOn:  true,
		SynFloodPPS: 2000,
		TCPConns:    200,
	}
}

// normalized strips the one field whose value legitimately depends on
// the pipeline architecture: the heavy-hitter summary's contents depend
// on merge order.
func normalized(ws WindowStats) WindowStats {
	ws.TrackedSources = 0
	return ws
}

// diffFields names the WindowStats fields on which the two sides differ.
func diffFields(eng, ref WindowStats) string {
	ve, vr := reflect.ValueOf(eng), reflect.ValueOf(ref)
	var out []string
	for i := 0; i < ve.NumField(); i++ {
		if e, r := ve.Field(i).Interface(), vr.Field(i).Interface(); e != r {
			out = append(out, fmt.Sprintf("%s engine %v, reference %v", ve.Type().Field(i).Name, e, r))
		}
	}
	return strings.Join(out, "; ")
}

func diffRun(t *testing.T, cfg Config) {
	t.Helper()
	engRes, err := Run(cfg)
	if err != nil {
		t.Fatalf("engine soak: %v", err)
	}
	refRes, err := run(cfg, newReference)
	if err != nil {
		t.Fatalf("reference soak: %v", err)
	}
	for _, v := range engRes.Violations {
		t.Errorf("engine violation: %s", v)
	}
	for _, v := range refRes.Violations {
		t.Errorf("reference violation: %s", v)
	}
	if len(engRes.Windows) != len(refRes.Windows) {
		t.Fatalf("window counts differ: engine %d, reference %d", len(engRes.Windows), len(refRes.Windows))
	}
	for w := range engRes.Windows {
		e, r := normalized(engRes.Windows[w]), normalized(refRes.Windows[w])
		if e != r {
			t.Fatalf("window %d diverged: %s", w, diffFields(e, r))
		}
	}
	if engRes.Detected != refRes.Detected {
		t.Errorf("detection verdicts differ: engine %v, reference %v", engRes.Detected, refRes.Detected)
	}
	if engRes.DistinctFlows != refRes.DistinctFlows {
		t.Errorf("distinct flows differ: engine %d, reference %d", engRes.DistinctFlows, refRes.DistinctFlows)
	}
	if !engRes.Detected {
		t.Errorf("differential run never blamed an above-floor attacker — verdict comparison is vacuous")
	}
	last := engRes.Windows[len(engRes.Windows)-1]
	if last.TableRules != engRes.Config.HotFlows {
		t.Errorf("table rules = %d, want %d", last.TableRules, engRes.Config.HotFlows)
	}
	if cfg.TCPGuardOn && (last.SynAcked == 0 || last.Established == 0 || last.TCPOffenders == 0) {
		t.Errorf("guard idle: synacked=%d established=%d offenders=%d — tier comparison is vacuous",
			last.SynAcked, last.Established, last.TCPOffenders)
	}
}

// The baseline the engine is held to is the sequential reference.
func TestDifferentialEngineVsBaseline(t *testing.T) {
	for _, guard := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			cfg := diffCfg(shards, guard)
			name := fmt.Sprintf("shards-%d", shards)
			if guard {
				name = "tcpguard-" + name
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				diffRun(t, cfg)
			})
		}
	}
	t.Run("soak_adaptive", func(t *testing.T) {
		t.Parallel()
		diffRun(t, benchSoakCfg())
	})
}
