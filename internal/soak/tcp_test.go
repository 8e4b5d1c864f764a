package soak

import (
	"testing"
	"time"

	"floodguard/internal/telemetry"
)

// tcpTierCfg is the TCP-tier soak configuration: the roster attackers
// plus a SYN flood, a slow-handshake prober, a malformed-segment
// attacker, and a benign closed-loop TCP connection population.
func tcpTierCfg(guard bool) Config {
	cfg := tierACfg(ProfileAll)
	cfg.TCPGuardOn = guard
	cfg.SynFloodPPS = 4000
	cfg.SlowShakePPS = 200
	cfg.MalformedPPS = 300
	cfg.TCPConns = 16
	return cfg
}

// TestSoakTCPGuardTier runs the full adversarial mix with the SYN-proxy
// tier armed and demands a clean invariant sheet plus the tier's own
// contracts: every benign connection attempt completes, zero cookie
// SYN-ACKs reach the controller, the connection table stays under its
// fixed budget, and the never-completing sources become TCP offenders.
func TestSoakTCPGuardTier(t *testing.T) {
	cfg := tcpTierCfg(true)
	cfg.Registry = telemetry.NewRegistry()
	res := mustRun(t, cfg)
	last := res.Windows[len(res.Windows)-1]

	// The guard must not blind port-rate attribution: the roster's
	// above-floor attackers are observed before the guard consumes
	// their SYNs, so they still get blamed.
	if !res.Detected {
		t.Errorf("above-floor roster attackers were never blamed with the tier on")
	}
	// Closed loop: every offered connection's SYN was cookie-answered
	// and its ACK established — completion is total under flood.
	offeredConns := last.CumInjTCP / 2 // each conn is one SYN + one ACK
	if last.Established != offeredConns || offeredConns == 0 {
		t.Errorf("established %d, want %d (every benign conn completes)", last.Established, offeredConns)
	}
	if last.SynAcked == 0 || last.GuardDropped == 0 {
		t.Errorf("guard idle: synacked=%d dropped=%d (flood not consumed at the tier)", last.SynAcked, last.GuardDropped)
	}
	if last.SynAckReplayed != 0 {
		t.Errorf("%d cookie SYN-ACKs leaked to the controller", last.SynAckReplayed)
	}
	if last.ConnWatermark > last.ConnBudget || last.ConnBudget == 0 {
		t.Errorf("conn watermark %d vs budget %d", last.ConnWatermark, last.ConnBudget)
	}
	// The SYN flood and the stealthy profiles never complete a
	// handshake; per-source evidence must brand them.
	if last.TCPOffenders < 2 {
		t.Errorf("TCP offenders %d, want >= 2 (synflood + slowshake/malformed)", last.TCPOffenders)
	}
	// The shards' evidence bound never binds here: the offenders above
	// are judged on every verdict.
	for _, m := range cfg.Registry.Snapshot().Metrics {
		if m.Name == "fg_soak_attrib_tcp_verdicts_dropped_total" && m.Value != 0 {
			t.Errorf("the TCP evidence bound dropped %v verdicts", m.Value)
		}
	}
}

// TestSoakTCPTierOffStillConserves runs the same mix without the guard:
// the new populations ride the ordinary miss path and the conservation
// catalog (with zero guard terms) must still close.
func TestSoakTCPTierOffStillConserves(t *testing.T) {
	res := mustRun(t, tcpTierCfg(false))
	last := res.Windows[len(res.Windows)-1]
	if last.SynAcked != 0 || last.GuardDropped != 0 || last.Established != 0 {
		t.Errorf("guard counters nonzero with tier off: %+v", last)
	}
	if last.CumInjTCP == 0 || last.TCPReplayed == 0 {
		t.Errorf("tier-off TCP population degenerate: inj=%d replayed=%d", last.CumInjTCP, last.TCPReplayed)
	}
}

// TestSoakTCPGuardDeterminism pins the tier's determinism: two guarded
// runs with the same seed produce identical window sheets.
func TestSoakTCPGuardDeterminism(t *testing.T) {
	cfg := tcpTierCfg(true)
	cfg.Duration = time.Second
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs:\n a: %+v\n b: %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}
