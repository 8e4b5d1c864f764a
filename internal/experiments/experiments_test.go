package experiments

import (
	"strings"
	"testing"
	"time"

	"floodguard/internal/switchsim"
)

// The experiment tests assert the *shape* of each reproduced artefact:
// who wins, by roughly what factor, and where the crossovers fall.

func TestSec2BaselineCollapseShape(t *testing.T) {
	pts, err := RunSec2Baseline()
	if err != nil {
		t.Fatal(err)
	}
	byRate := make(map[float64]CollapsePoint, len(pts))
	for _, p := range pts {
		byRate[p.AttackPPS] = p
	}
	if got := byRate[0].GoodputShare; got < 0.99 {
		t.Errorf("share at 0 PPS = %v, want ~1", got)
	}
	if got := byRate[500].GoodputShare; got > 0.05 {
		t.Errorf("share at 500 PPS = %v; §II says the software switch is dysfunctional", got)
	}
	// Monotone decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].GoodputShare > pts[i-1].GoodputShare+0.01 {
			t.Errorf("share not monotone: %v", pts)
		}
	}
	// Buffer exhaustion and amplification appear at high rates.
	if byRate[500].AmplifiedIns == 0 {
		t.Error("no amplified packet_ins at 500 PPS despite full buffer")
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth sweep is slow")
	}
	prof := switchsim.SoftwareProfile()
	base := prof.DataRateBits

	noFG130, err := MeasureBandwidth(prof, false, 130, BandwidthSeed)
	if err != nil {
		t.Fatal(err)
	}
	if noFG130 < 0.35*base || noFG130 > 0.65*base {
		t.Errorf("no-FG bandwidth at 130 PPS = %.0f, want ~half of %.0f", noFG130, base)
	}
	noFG500, err := MeasureBandwidth(prof, false, 500, BandwidthSeed)
	if err != nil {
		t.Fatal(err)
	}
	if noFG500 > 0.05*base {
		t.Errorf("no-FG bandwidth at 500 PPS = %.0f, want near zero", noFG500)
	}
	fg500, err := MeasureBandwidth(prof, true, 500, BandwidthSeed)
	if err != nil {
		t.Fatal(err)
	}
	if fg500 < 0.95*base {
		t.Errorf("FG bandwidth at 500 PPS = %.0f, want ~unchanged (%.0f)", fg500, base)
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth sweep is slow")
	}
	prof := switchsim.HardwareProfile()
	base := prof.DataRateBits

	noFG150, err := MeasureBandwidth(prof, false, 150, BandwidthSeed)
	if err != nil {
		t.Fatal(err)
	}
	if noFG150 < 0.35*base || noFG150 > 0.65*base {
		t.Errorf("no-FG bandwidth at 150 PPS = %.0f, want ~half", noFG150)
	}
	noFG1000, err := MeasureBandwidth(prof, false, 1000, BandwidthSeed)
	if err != nil {
		t.Fatal(err)
	}
	if noFG1000 > 0.05*base {
		t.Errorf("no-FG bandwidth at 1000 PPS = %.0f, want near zero", noFG1000)
	}
	fg200, err := MeasureBandwidth(prof, true, 200, BandwidthSeed)
	if err != nil {
		t.Fatal(err)
	}
	if fg200 < 0.9*base {
		t.Errorf("FG bandwidth at 200 PPS = %.0f, want ~%.0f (paper: 8.3 of 8.4 Mbps)", fg200, base)
	}
	fg1000, err := MeasureBandwidth(prof, true, 1000, BandwidthSeed)
	if err != nil {
		t.Fatal(err)
	}
	if fg1000 >= fg200 {
		t.Errorf("FG bandwidth should decline slowly past 200 PPS (software flow table): %0.f at 1000 vs %.0f at 200", fg1000, fg200)
	}
	if fg1000 < 0.5*base {
		t.Errorf("FG bandwidth at 1000 PPS = %.0f; decline should be slow, not a collapse", fg1000)
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 5 {
		t.Fatalf("apps = %v", res.Apps)
	}
	if res.Detection <= res.AttackStart || res.Detection > res.AttackStart+300*time.Millisecond {
		t.Errorf("detection at %v, attack at %v", res.Detection, res.AttackStart)
	}
	for _, app := range res.Apps {
		baseline := res.AvgUtil(app, 100*time.Millisecond, 600*time.Millisecond)
		peak := res.PeakUtil(app)
		tail := res.AvgUtil(app, 2200*time.Millisecond, 2500*time.Millisecond)
		if peak < 3*baseline+0.02 {
			t.Errorf("%s: peak %.3f not clearly above baseline %.3f", app, peak, baseline)
		}
		// Recovery: the tail returns to (near) the initial level.
		if tail > baseline+0.03 {
			t.Errorf("%s: tail utilization %.3f did not recover to baseline %.3f", app, tail, baseline)
		}
		// The medium plateau between detection and drain sits between
		// baseline and peak.
		mid := res.AvgUtil(app, res.AttackStop, res.AttackStop+500*time.Millisecond)
		if !(mid < peak) {
			t.Errorf("%s: medium level %.3f not below peak %.3f", app, mid, peak)
		}
		if !(mid > baseline) {
			t.Errorf("%s: medium level %.3f not above baseline %.3f (cache replay should show)", app, mid, baseline)
		}
	}
	// of_firewall is the most expensive app at the peak (its program is
	// the deepest).
	if res.PeakUtil("of_firewall") <= res.PeakUtil("mac_blocker") {
		t.Error("of_firewall peak not above mac_blocker peak")
	}
}

func TestFig13Shape(t *testing.T) {
	costs, err := RunFig13(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 5 {
		t.Fatalf("costs = %v", costs)
	}
	byApp := make(map[string]RuleGenCost, len(costs))
	for _, c := range costs {
		byApp[c.App] = c
		if c.Average <= 0 {
			t.Errorf("%s: non-positive derive time", c.App)
		}
		if c.Rules == 0 && c.App != "arp_hub" {
			t.Errorf("%s: derived no rules from populated state", c.App)
		}
	}
	// The paper's headline: of_firewall is the worst case ("contains
	// relatively more complex data structure"). The work Algorithm 2 does
	// is what is compared — paths it walks, rules it derives — not the
	// clock: the wall-clock order of two sub-millisecond loops inverts
	// whenever another test package loads the box.
	fw := byApp["of_firewall"]
	for _, other := range []string{"l2_learning", "ip_balancer", "l3_learning", "mac_blocker"} {
		o := byApp[other]
		if fw.Paths <= o.Paths || fw.Rules <= o.Rules {
			t.Errorf("of_firewall (%d paths, %d rules) not costlier than %s (%d paths, %d rules)",
				fw.Paths, fw.Rules, other, o.Paths, o.Rules)
		}
	}
}

func TestTable3Content(t *testing.T) {
	rows, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"l2_learning": "macToPort",
		"l3_learning": "ipToPort",
		"mac_blocker": "blockedMACs",
		"of_firewall": "routeTable",
		"ip_balancer": "replicaHi",
	}
	for _, r := range rows {
		needle, ok := want[r.App]
		if !ok {
			continue
		}
		found := false
		for _, v := range r.Variables {
			if v == needle {
				found = true
				if r.Described[v] == "" {
					t.Errorf("%s: %s has no description", r.App, v)
				}
			}
		}
		if !found {
			t.Errorf("%s: missing %s in %v", r.App, needle, r.Variables)
		}
	}
}

func TestTab4Shape(t *testing.T) {
	res, err := RunTab4(3)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 130 ms baseline, 157 ms guarded (30 + 127), +20.8%,
	// infinite without the defense.
	if res.Baseline < 100*time.Millisecond || res.Baseline > 160*time.Millisecond {
		t.Errorf("baseline = %v, want ~130ms", res.Baseline)
	}
	if res.NoGuardDelivered {
		t.Errorf("first packet delivered in %v under attack without FloodGuard; paper says infinite", res.UnderAttackNoGuard)
	}
	if res.Guarded <= res.Baseline {
		t.Error("guarded delay not above baseline")
	}
	if res.OverheadPct < 5 || res.OverheadPct > 45 {
		t.Errorf("overhead = %.1f%%, want ~20%%", res.OverheadPct)
	}
	if res.CacheResidence < 5*time.Millisecond || res.CacheResidence > 80*time.Millisecond {
		t.Errorf("cache residence = %v, want ~30ms", res.CacheResidence)
	}
	if res.AfterMigration < 80*time.Millisecond || res.AfterMigration > 200*time.Millisecond {
		t.Errorf("after-migration = %v, want ~127ms", res.AfterMigration)
	}
}

func TestPrinters(t *testing.T) {
	var sb strings.Builder
	res := &BandwidthResult{
		Title:    "t",
		Baseline: BandwidthCurve{Label: "a", Points: []BandwidthPoint{{100, 2e9}, {200, 5e5}}},
		Guarded:  BandwidthCurve{Label: "b", Points: []BandwidthPoint{{100, 3e6}, {200, 10}}},
	}
	res.Print(&sb)
	for _, frag := range []string{"Gbps", "Mbps", "Kbps", "bps"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("bandwidth printer missing %q:\n%s", frag, sb.String())
		}
	}
}

func TestTestbedDeterminism(t *testing.T) {
	run := func() uint64 {
		tb, err := NewTestbed(TestbedConfig{
			Profile:        switchsim.SoftwareProfile(),
			WithFloodGuard: true,
			GuardConfig:    DefaultGuardConfig(),
			FloodSeed:      5,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		tb.WarmUp()
		tb.Flooder.Start(150)
		tb.Eng.RunFor(3 * time.Second)
		return tb.Guard.Replayed() ^ tb.Switch.Stats().PacketIns<<16 ^ uint64(tb.Switch.Table().Len())<<32
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical scenarios diverged: %x vs %x", a, b)
	}
}
