// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): the bandwidth-under-attack curves (Figures 10 and 11),
// the per-application CPU utilization timeline (Figure 12), the proactive
// rule generation overhead (Figure 13), the state-sensitive variable
// inventory (Table III), the first-packet delay breakdown (Table IV), and
// the §II software-switch collapse baseline. Each experiment builds the
// Figure 9 topology on the discrete-event engine, runs the scenario, and
// returns the series the paper reports.
package experiments

import (
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/core"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/switchsim"
)

// Testbed is the Figure 9 topology: one OpenFlow switch, a reactive
// controller, two benign clients, one attacker, and (optionally)
// FloodGuard with its data plane cache.
type Testbed struct {
	Eng      *netsim.Engine
	Switch   *switchsim.Switch
	Ctrl     *controller.Controller
	Guard    *core.Guard // nil without FloodGuard
	Alice    *switchsim.Host
	Bob      *switchsim.Host
	Attacker *switchsim.Host
	Flooder  *switchsim.Flooder
}

// TestbedConfig parameterises a testbed build.
type TestbedConfig struct {
	Profile switchsim.Profile
	// Apps and their per-event controller costs; defaults to l2_learning
	// at 1ms.
	Apps []AppSpec
	// WithFloodGuard attaches a Guard with GuardConfig.
	WithFloodGuard bool
	GuardConfig    core.Config
	// ControllerBaseCost is the platform demultiplex cost per packet_in.
	ControllerBaseCost time.Duration
	// FloodSeed seeds the attacker's spoofed generator.
	FloodSeed int64
	// FloodProto selects the attack traffic family (default UDP, the
	// paper's choice).
	FloodProto netpkt.FloodProtocol
}

// AppSpec names a bundled application and its modelled CPU cost.
type AppSpec struct {
	Name string
	Cost time.Duration
}

// DefaultGuardConfig tunes the default FloodGuard configuration for the
// experiment sweeps: detection engages at low attack rates so the
// with-FloodGuard curves cover the whole x-axis, as in Figures 10/11.
func DefaultGuardConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Detection.RateThresholdPPS = 10
	cfg.Detection.TriggerSamples = 2
	cfg.Detection.QuietPeriod = time.Second
	// Cap replay: every replayed spoofed packet is learned by l2_learning
	// and becomes a proactive rule, and on the hardware profile's
	// software flow table each rule costs lookup time.
	cfg.RateLimit.MaxPPS = 25
	// Charge a fixed derivation latency to virtual time so experiment
	// timelines don't depend on the host's wall clock (cold caches on
	// the first derivation would otherwise shift Init→Defense and break
	// sweep reproducibility). 1ms is the Figure 13 ballpark for the
	// bundled apps.
	cfg.Analyzer.ModeledDeriveLatency = time.Millisecond
	return cfg
}

// buildApp instantiates a bundled app by name with a populated state
// where that makes it operational.
func buildApp(name string, cost time.Duration) *controller.App {
	var (
		prog *appir.Program
		st   *appir.State
	)
	switch name {
	case "l2_learning":
		prog, st = apps.L2Learning()
	case "arp_hub":
		prog, st = apps.ARPHub()
	case "ip_balancer":
		prog, st = apps.IPBalancer()
	case "l3_learning":
		prog, st = apps.L3Learning()
	case "of_firewall":
		prog, st = apps.OFFirewall()
		PopulateFirewall(st, 4, 3, 8)
	case "mac_blocker":
		prog, st = apps.MACBlocker()
		st.Learn("blockedMACs", appir.MACValue(netpkt.MustMAC("00:00:00:00:00:66")), appir.BoolValue(true))
	case "route":
		prog, st = apps.Route()
		st.AddPrefix("routingTable", appir.IPValue(netpkt.MustIPv4("10.0.0.0")), 8, appir.U16Value(2))
	default:
		prog, st = apps.L2Learning()
	}
	return &controller.App{Prog: prog, State: st, CostPerEvent: cost}
}

// PopulateFirewall loads a firewall state with nPorts blocked TCP ports,
// nNets blocked source networks and nRoutes destination routes.
func PopulateFirewall(st *appir.State, nPorts, nNets, nRoutes int) {
	for i := 0; i < nPorts; i++ {
		st.Learn("blockedTCPPorts", appir.U16Value(uint16(23+i)), appir.BoolValue(true))
	}
	for i := 0; i < nNets; i++ {
		st.AddPrefix("blockedSrcNets",
			appir.IPValue(netpkt.IPv4(0xcb007100+uint32(i)<<8)), 24, appir.BoolValue(true))
	}
	for i := 0; i < nRoutes; i++ {
		st.AddPrefix("routeTable",
			appir.IPValue(netpkt.IPv4(0x0a000000+uint32(i)<<16)), 16, appir.U16Value(uint16(i%8+1)))
	}
}

// NewTestbed assembles the topology. Hosts alice (port 1), bob (port 2)
// and the attacker (port 3) hang off 1 Gbps edge links.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	eng := netsim.NewEngine()
	sw := switchsim.New(eng, 0x1, cfg.Profile)
	sw.Start()

	ctrl := controller.New(eng)
	ctrl.BaseCost = cfg.ControllerBaseCost
	if len(cfg.Apps) == 0 {
		cfg.Apps = []AppSpec{{Name: "l2_learning", Cost: time.Millisecond}}
	}
	for _, spec := range cfg.Apps {
		ctrl.Register(buildApp(spec.Name, spec.Cost))
	}

	tb := &Testbed{Eng: eng, Switch: sw, Ctrl: ctrl}
	edge := 1e9
	lat := 100 * time.Microsecond
	tb.Alice = switchsim.NewHost(eng, sw, "alice", 1, netpkt.MustMAC("00:00:00:00:00:0a"), netpkt.MustIPv4("10.0.0.1"), edge, lat)
	tb.Bob = switchsim.NewHost(eng, sw, "bob", 2, netpkt.MustMAC("00:00:00:00:00:0b"), netpkt.MustIPv4("10.0.0.2"), edge, lat)
	tb.Attacker = switchsim.NewHost(eng, sw, "attacker", 3, netpkt.MustMAC("00:00:00:00:00:0c"), netpkt.MustIPv4("10.0.0.3"), edge, lat)
	proto := cfg.FloodProto
	if proto == 0 {
		proto = netpkt.FloodUDP
	}
	tb.Flooder = switchsim.NewFlooder(tb.Attacker, cfg.FloodSeed+1, proto, 64)

	controller.Bind(ctrl, sw)
	if cfg.WithFloodGuard {
		guard, err := core.NewGuard(eng, ctrl, cfg.GuardConfig)
		if err != nil {
			return nil, err
		}
		if err := guard.Protect(sw); err != nil {
			return nil, err
		}
		if err := guard.Start(); err != nil {
			return nil, err
		}
		tb.Guard = guard
	}
	tb.Instrument(liveReg)
	return tb, nil
}

// Close stops the testbed's periodic work.
func (tb *Testbed) Close() {
	if tb.Guard != nil {
		tb.Guard.Stop()
	}
	tb.Switch.Stop()
}

// BenignFlow is the alice→bob conversation.
func (tb *Testbed) BenignFlow() netpkt.Flow {
	return netpkt.Flow{
		SrcMAC: tb.Alice.MAC, DstMAC: tb.Bob.MAC,
		SrcIP: tb.Alice.IP, DstIP: tb.Bob.IP,
		Proto: netpkt.ProtoUDP, SrcPort: 5000, DstPort: 7000,
	}
}

// WarmUp lets the session settle and has alice and bob introduce
// themselves so l2_learning knows both before the attack, as in the
// paper's setup ("discovers the topology and provides basic forwarding
// services").
func (tb *Testbed) WarmUp() {
	tb.Eng.RunFor(200 * time.Millisecond)
	f := tb.BenignFlow()
	tb.Alice.Send(f.Packet(100))
	tb.Bob.Send(f.Reverse().Packet(100))
	tb.Eng.RunFor(800 * time.Millisecond)
}
