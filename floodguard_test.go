package floodguard_test

import (
	"testing"
	"time"

	"floodguard"
)

// buildNetwork assembles the Figure 9 topology through the public API.
func buildNetwork(t *testing.T) (*floodguard.Network, *floodguard.Host, *floodguard.Host, *floodguard.Host) {
	t.Helper()
	net := floodguard.NewNetwork()
	sw := net.AddSwitch(1, floodguard.SoftwareSwitch())
	alice, err := net.AddHost(sw, "alice", 1, "00:00:00:00:00:0a", "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := net.AddHost(sw, "bob", 2, "00:00:00:00:00:0b", "10.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := net.AddHost(sw, "mallory", 3, "00:00:00:00:00:0c", "10.0.0.3")
	if err != nil {
		t.Fatal(err)
	}
	net.RegisterApp(floodguard.L2Learning())
	net.Deploy()
	t.Cleanup(net.Close)
	return net, alice, bob, mallory
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	net, _, _, mallory := buildNetwork(t)
	guard, err := net.EnableFloodGuard(floodguard.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	if guard.State() != floodguard.StateIdle {
		t.Fatalf("state = %v, want idle", guard.State())
	}

	flood := net.NewFlooder(mallory, 42, floodguard.FloodUDP)
	flood.Start(300)
	ok := net.RunUntil(func() bool { return guard.State() == floodguard.StateDefense },
		100*time.Millisecond, 5*time.Second)
	if !ok {
		t.Fatalf("defense not reached; state = %v", guard.State())
	}

	flood.Stop()
	ok = net.RunUntil(func() bool { return guard.State() == floodguard.StateIdle },
		500*time.Millisecond, 60*time.Second)
	if !ok {
		t.Fatalf("idle not restored; state = %v", guard.State())
	}
	if guard.DetectedAttacks() != 1 {
		t.Errorf("DetectedAttacks = %d", guard.DetectedAttacks())
	}
}

func TestPublicAPIEnableBeforeDeployFails(t *testing.T) {
	net := floodguard.NewNetwork()
	net.AddSwitch(1, floodguard.SoftwareSwitch())
	defer net.Close()
	if _, err := net.EnableFloodGuard(floodguard.DefaultConfig()); err == nil {
		t.Error("EnableFloodGuard before Deploy succeeded")
	}
}

func TestPublicAPIBadAddresses(t *testing.T) {
	net := floodguard.NewNetwork()
	sw := net.AddSwitch(1, floodguard.SoftwareSwitch())
	defer net.Close()
	if _, err := net.AddHost(sw, "x", 1, "zz:bad", "10.0.0.1"); err == nil {
		t.Error("bad MAC accepted")
	}
	if _, err := net.AddHost(sw, "x", 1, "00:00:00:00:00:01", "999.0.0.1"); err == nil {
		t.Error("bad IP accepted")
	}
}

func TestPublicAPIAnalyze(t *testing.T) {
	app := floodguard.L2Learning()
	paths, err := floodguard.Analyze(app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Errorf("l2_learning paths = %d, want 3 (Figure 5)", len(paths))
	}
	vars := floodguard.StateSensitiveVariables(paths)
	if len(vars) != 1 || vars[0] != "macToPort" {
		t.Errorf("state-sensitive vars = %v", vars)
	}
}

func TestPublicAPIBundledApps(t *testing.T) {
	for _, app := range []*floodguard.App{
		floodguard.L2Learning(), floodguard.ARPHub(), floodguard.IPBalancer(),
		floodguard.L3Learning(), floodguard.OFFirewall(), floodguard.MACBlocker(),
		floodguard.RouteApp(),
	} {
		if app.Prog == nil || app.State == nil || app.CostPerEvent <= 0 {
			t.Errorf("app %+v incompletely constructed", app)
		}
		if _, err := floodguard.Analyze(app.Prog); err != nil {
			t.Errorf("%s: Analyze: %v", app.Name(), err)
		}
	}
}

func TestPublicAPIMultiSwitch(t *testing.T) {
	net := floodguard.NewNetwork()
	s1 := net.AddSwitch(1, floodguard.SoftwareSwitch())
	s2 := net.AddSwitch(2, floodguard.SoftwareSwitch())
	if _, err := net.AddHost(s1, "a", 1, "00:00:00:00:00:0a", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	mal, err := net.AddHost(s2, "m", 1, "00:00:00:00:00:0c", "10.0.0.3")
	if err != nil {
		t.Fatal(err)
	}
	net.RegisterApp(floodguard.L2Learning())
	net.Deploy()
	defer net.Close()
	guard, err := net.EnableFloodGuard(floodguard.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	flood := net.NewFlooder(mal, 3, floodguard.FloodMixed)
	flood.Start(300)
	if !net.RunUntil(func() bool { return guard.State() == floodguard.StateDefense },
		100*time.Millisecond, 5*time.Second) {
		t.Fatalf("defense not reached on multi-switch deployment")
	}
	// Attack on s2 only: both switches still got migration rules; s2's
	// flood is absorbed by the shared cache.
	if guard.Cache().Stats().Enqueued == 0 {
		t.Error("shared cache absorbed nothing")
	}
}
