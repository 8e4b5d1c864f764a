package floodguard_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run `go test -bench=. -benchmem`), plus ablation
// benches for the design choices DESIGN.md calls out and microbenches of
// the hot substrate paths. Scenario benches run one full experiment per
// iteration and report the headline numbers as custom metrics.

import (
	"testing"
	"time"

	"floodguard"
	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/core"
	"floodguard/internal/dpcache"
	"floodguard/internal/experiments"
	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/switchsim"
	"floodguard/internal/symexec"
)

// --- §II baseline ---

func BenchmarkSec2SwitchCollapse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunSec2Baseline()
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.GoodputShare, "share@600pps")
		b.ReportMetric(float64(last.AmplifiedIns), "amplified")
	}
}

// --- Figure 10 / Figure 11 ---

func benchBandwidthPoint(b *testing.B, profile switchsim.Profile, withFG bool, rate float64, metric string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		bw, err := experiments.MeasureBandwidth(profile, withFG, rate, experiments.BandwidthSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw/1e6, metric)
	}
}

func BenchmarkFig10Software(b *testing.B) {
	prof := switchsim.SoftwareProfile()
	b.Run("openflow/130pps", func(b *testing.B) { benchBandwidthPoint(b, prof, false, 130, "Mbps") })
	b.Run("openflow/500pps", func(b *testing.B) { benchBandwidthPoint(b, prof, false, 500, "Mbps") })
	b.Run("floodguard/130pps", func(b *testing.B) { benchBandwidthPoint(b, prof, true, 130, "Mbps") })
	b.Run("floodguard/500pps", func(b *testing.B) { benchBandwidthPoint(b, prof, true, 500, "Mbps") })
}

func BenchmarkFig11Hardware(b *testing.B) {
	prof := switchsim.HardwareProfile()
	b.Run("openflow/150pps", func(b *testing.B) { benchBandwidthPoint(b, prof, false, 150, "Mbps") })
	b.Run("openflow/1000pps", func(b *testing.B) { benchBandwidthPoint(b, prof, false, 1000, "Mbps") })
	b.Run("floodguard/200pps", func(b *testing.B) { benchBandwidthPoint(b, prof, true, 200, "Mbps") })
	b.Run("floodguard/1000pps", func(b *testing.B) { benchBandwidthPoint(b, prof, true, 1000, "Mbps") })
}

// --- Figure 12 ---

func BenchmarkFig12CPUTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12()
		if err != nil {
			b.Fatal(err)
		}
		peak := 0.0
		for _, s := range res.Series["of_firewall"] {
			peak = max(peak, s.Util)
		}
		b.ReportMetric(peak*100, "peak%")
		b.ReportMetric(res.Detection.Seconds()*1000, "detect_ms")
	}
}

// --- Figure 13 ---

func BenchmarkFig13RuleGeneration(b *testing.B) {
	size := experiments.DefaultFig13State()
	subjects := map[string]func() *controller.App{
		"l2_learning": func() *controller.App {
			prog, st := apps.L2Learning()
			for i := 0; i < size.LearnedMACs; i++ {
				st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(uint64(i+1))), appir.U16Value(uint16(i%8+1)))
			}
			return &controller.App{Prog: prog, State: st}
		},
		"ip_balancer": func() *controller.App {
			prog, st := apps.IPBalancer(apps.DefaultIPBalancerConfig())
			return &controller.App{Prog: prog, State: st}
		},
		"l3_learning": func() *controller.App {
			prog, st := apps.L3Learning()
			for i := 0; i < size.LearnedIPs; i++ {
				st.Learn("ipToPort", appir.IPValue(netpkt.IPv4(0x0a000001+uint32(i))), appir.U16Value(uint16(i%8+1)))
			}
			return &controller.App{Prog: prog, State: st}
		},
		"of_firewall": func() *controller.App {
			prog, st := apps.OFFirewall()
			experiments.PopulateFirewall(st, size.BlockedPorts, size.BlockedNets, size.Routes)
			return &controller.App{Prog: prog, State: st}
		},
		"mac_blocker": func() *controller.App {
			prog, st := apps.MACBlocker()
			for i := 0; i < size.BlockedMACs; i++ {
				st.Learn("blockedMACs", appir.MACValue(netpkt.MACFromUint64(uint64(0x600+i))), appir.BoolValue(true))
			}
			return &controller.App{Prog: prog, State: st}
		},
	}
	for name, mk := range subjects {
		b.Run(name, func(b *testing.B) {
			an, err := core.NewAnalyzer(core.DefaultAnalyzer(), []*controller.App{mk()})
			if err != nil {
				b.Fatal(err)
			}
			if err := an.Prepare(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := an.DeriveAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table IV ---

func BenchmarkTab4FirstPacketDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTab4(3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Baseline.Seconds()*1000, "baseline_ms")
		b.ReportMetric(res.Guarded.Seconds()*1000, "guarded_ms")
		b.ReportMetric(res.OverheadPct, "overhead%")
	}
}

// BenchmarkBaselineAvantGuard runs the §III comparison: AvantGuard's SYN
// proxy versus FloodGuard under TCP and UDP floods.
func BenchmarkBaselineAvantGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunComparison(300)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Defense == experiments.DefenseAvantGuard && c.Flood == netpkt.FloodTCP {
				b.ReportMetric(c.GoodputShare, "ag_tcp_share")
			}
			if c.Defense == experiments.DefenseAvantGuard && c.Flood == netpkt.FloodUDP {
				b.ReportMetric(c.GoodputShare, "ag_udp_share")
			}
			if c.Defense == experiments.DefenseFloodGuard && c.Flood == netpkt.FloodUDP {
				b.ReportMetric(c.GoodputShare, "fg_udp_share")
			}
		}
	}
}

// --- Ablations ---

// BenchmarkAblationQueueDiscipline compares the paper's four-protocol
// round-robin against a single FIFO: the latency of one benign TCP packet
// queued behind a UDP flood backlog.
func BenchmarkAblationQueueDiscipline(b *testing.B) {
	measure := func(single bool) time.Duration {
		eng := netsim.NewEngine()
		var delay time.Duration
		cfg := dpcache.Config{QueueCapacity: 4096, InitialRatePPS: 50, SingleQueue: single}
		sink := sinkFunc(func(origin uint64, inPort uint16, pkt netpkt.Packet, queued time.Duration) {
			if pkt.NwProto == netpkt.ProtoTCP {
				delay = queued
			}
		})
		c := dpcache.New(eng, cfg, sink)
		g := netpkt.NewSpoofGen(3, netpkt.FloodUDP, 64)
		for i := 0; i < 1000; i++ {
			p := g.Next()
			p.NwTOS = dpcache.EncodeInPortTOS(1)
			c.Ingest(0, p)
		}
		tcp := netpkt.Packet{
			EthType: netpkt.EtherTypeIPv4, NwProto: netpkt.ProtoTCP,
			NwTOS: dpcache.EncodeInPortTOS(2), TpDst: 80,
		}
		c.Ingest(0, tcp)
		c.Start()
		defer c.Stop()
		eng.RunFor(60 * time.Second)
		return delay
	}
	b.Run("round-robin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measure(false).Seconds()*1000, "tcp_delay_ms")
		}
	})
	b.Run("single-fifo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measure(true).Seconds()*1000, "tcp_delay_ms")
		}
	})
}

type sinkFunc func(origin uint64, inPort uint16, pkt netpkt.Packet, queued time.Duration)

func (f sinkFunc) CacheEmit(origin uint64, inPort uint16, pkt netpkt.Packet, queued time.Duration) {
	f(origin, inPort, pkt, queued)
}

// BenchmarkAblationUpdateStrategy compares the §IV.D rule-update
// strategies under state churn: derivations performed (overhead) per
// refresh delivered (accuracy), and the wall-clock cost of one sync.
// Interval is modelled as a tracker ticker that fires once per ten
// state changes.
func BenchmarkAblationUpdateStrategy(b *testing.B) {
	run := func(strategy core.UpdateStrategy, everyN uint64, pollEvery int) (derivations uint64, syncTime time.Duration) {
		prog, st := apps.L2Learning()
		app := &controller.App{Prog: prog, State: st}
		cfg := core.DefaultAnalyzer()
		cfg.Strategy = strategy
		cfg.EveryN = everyN
		an, err := core.NewAnalyzer(cfg, []*controller.App{app})
		if err != nil {
			b.Fatal(err)
		}
		if err := an.Prepare(); err != nil {
			b.Fatal(err)
		}
		tgt := nopTarget{}
		if _, _, err := an.SyncScoped(nil, []core.RuleTarget{tgt}); err != nil {
			b.Fatal(err)
		}
		// 200 state changes, tracker polled after every pollEvery-th.
		for i := 0; i < 200; i++ {
			st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(uint64(i+1))), appir.U16Value(uint16(i%8+1)))
			if (i+1)%pollEvery == 0 && an.NeedsUpdate() {
				start := time.Now()
				if _, _, err := an.SyncScoped(nil, []core.RuleTarget{tgt}); err != nil {
					b.Fatal(err)
				}
				syncTime += time.Since(start)
			}
		}
		return an.Derivations.Value(), syncTime
	}
	leg := func(name string, strategy core.UpdateStrategy, everyN uint64, pollEvery int) {
		b.Run(name, func(b *testing.B) {
			var derivations uint64
			var syncTime time.Duration
			for i := 0; i < b.N; i++ {
				d, t := run(strategy, everyN, pollEvery)
				derivations += d
				syncTime += t
			}
			b.ReportMetric(float64(derivations)/float64(b.N), "derivations")
			b.ReportMetric(float64(syncTime.Nanoseconds())/float64(derivations-uint64(b.N)), "ns/sync")
		})
	}
	leg("every-change", core.UpdateEveryChange, 0, 1)
	leg("every-20", core.UpdateEveryN, 20, 1)
	leg("interval", core.UpdateInterval, 0, 10)
}

type nopTarget struct{}

func (nopTarget) InstallProactive(openflow.FlowMod) error { return nil }

// BenchmarkAblationCacheResidentRules compares the §IV.E design options:
// proactive rules in switch TCAM versus in the data plane cache, by
// switch table occupancy under defense.
func BenchmarkAblationCacheResidentRules(b *testing.B) {
	run := func(inCache bool) (switchRules, cacheRules int) {
		net := floodguard.NewNetwork()
		sw := net.AddSwitch(1, floodguard.SoftwareSwitch())
		mustHost(b, net, sw, "a", 1, "00:00:00:00:00:0a", "10.0.0.1")
		mustHost(b, net, sw, "b", 2, "00:00:00:00:00:0b", "10.0.0.2")
		mal := mustHost(b, net, sw, "m", 3, "00:00:00:00:00:0c", "10.0.0.3")
		net.RegisterApp(floodguard.L2Learning())
		net.Deploy()
		defer net.Close()
		cfg := floodguard.DefaultConfig()
		cfg.Analyzer.RulesInCache = inCache
		cfg.RateLimit.MaxPPS = 20
		guard, err := net.EnableFloodGuard(cfg)
		if err != nil {
			b.Fatal(err)
		}
		net.Run(500 * time.Millisecond)
		flood := net.NewFlooder(mal, 5, floodguard.FloodUDP)
		flood.Start(200)
		net.Run(2 * time.Second)
		if guard.State() != floodguard.StateDefense {
			b.Fatalf("state = %v", guard.State())
		}
		cr := 0
		if t := guard.Cache().RuleTable(); t != nil {
			cr = t.Len()
		}
		return sw.Table().Len(), cr
	}
	b.Run("tcam", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, c := run(false)
			b.ReportMetric(float64(s), "switch_rules")
			b.ReportMetric(float64(c), "cache_rules")
		}
	})
	b.Run("cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, c := run(true)
			b.ReportMetric(float64(s), "switch_rules")
			b.ReportMetric(float64(c), "cache_rules")
		}
	})
}

func mustHost(b *testing.B, net *floodguard.Network, sw *floodguard.Switch, name string, port uint16, mac, ip string) *floodguard.Host {
	b.Helper()
	h, err := net.AddHost(sw, name, port, mac, ip)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkAblationDetection compares the composite detector against a
// rate-only detector on a fast flood: time from attack start to Init.
func BenchmarkAblationDetection(b *testing.B) {
	run := func(utilEnabled bool) time.Duration {
		net := floodguard.NewNetwork()
		sw := net.AddSwitch(1, floodguard.SoftwareSwitch())
		mustHost(b, net, sw, "a", 1, "00:00:00:00:00:0a", "10.0.0.1")
		mal := mustHost(b, net, sw, "m", 2, "00:00:00:00:00:0c", "10.0.0.3")
		net.RegisterApp(floodguard.L2Learning())
		net.Deploy()
		defer net.Close()
		cfg := floodguard.DefaultConfig()
		if !utilEnabled {
			cfg.Detection.UtilizationThreshold = 0
		}
		guard, err := net.EnableFloodGuard(cfg)
		if err != nil {
			b.Fatal(err)
		}
		net.Run(500 * time.Millisecond)
		start := net.Now()
		flood := net.NewFlooder(mal, 5, floodguard.FloodUDP)
		flood.Start(300)
		net.RunUntil(func() bool { return guard.State() != floodguard.StateIdle },
			10*time.Millisecond, 5*time.Second)
		return net.Now() - start
	}
	b.Run("composite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(run(true).Seconds()*1000, "detect_ms")
		}
	})
	b.Run("rate-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(run(false).Seconds()*1000, "detect_ms")
		}
	})
}

// BenchmarkAblationINPORTTag compares the paper's per-port TOS-tagged
// migration rules against a single untagged wildcard: rule count on the
// switch, and whether replayed learning stays correct.
func BenchmarkAblationINPORTTag(b *testing.B) {
	run := func(disableTag bool) (rules int, learnOK bool) {
		net := floodguard.NewNetwork()
		sw := net.AddSwitch(1, floodguard.SoftwareSwitch())
		alice := mustHost(b, net, sw, "a", 1, "00:00:00:00:00:0a", "10.0.0.1")
		mustHost(b, net, sw, "b", 2, "00:00:00:00:00:0b", "10.0.0.2")
		mal := mustHost(b, net, sw, "m", 3, "00:00:00:00:00:0c", "10.0.0.3")
		app := floodguard.L2Learning()
		net.RegisterApp(app)
		net.Deploy()
		defer net.Close()
		cfg := floodguard.DefaultConfig()
		cfg.DisableINPORTTag = disableTag
		if _, err := net.EnableFloodGuard(cfg); err != nil {
			b.Fatal(err)
		}
		net.Run(300 * time.Millisecond)
		net.NewFlooder(mal, 5, floodguard.FloodUDP).Start(200)
		net.Run(2 * time.Second)

		pkt := floodguard.TCPSYN(alice, alice, 4321, 80)
		pkt.EthDst, _ = floodguard.ParseMAC("00:00:00:00:00:7e")
		alice.Send(pkt)
		net.Run(2 * time.Second)

		for _, e := range sw.Table().Entries() {
			if e.Priority == 1 {
				rules++
			}
		}
		v, ok := app.State.LookupTable("macToPort", mustMACValue(b, "00:00:00:00:00:0a"))
		learnOK = ok && v.U16() == 1
		return rules, learnOK
	}
	b.Run("tagged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rules, ok := run(false)
			b.ReportMetric(float64(rules), "migration_rules")
			b.ReportMetric(boolMetric(ok), "learning_ok")
		}
	})
	b.Run("untagged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rules, ok := run(true)
			b.ReportMetric(float64(rules), "migration_rules")
			b.ReportMetric(boolMetric(ok), "learning_ok")
		}
	})
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func mustMACValue(b *testing.B, s string) appir.Value {
	b.Helper()
	m, err := netpkt.ParseMAC(s)
	if err != nil {
		b.Fatal(err)
	}
	return appir.MACValue(m)
}

// --- Substrate microbenches ---

func BenchmarkOpenFlowEncodeDecode(b *testing.B) {
	p := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 64).Next()
	fm := openflow.FlowMod{
		Match:    openflow.ExactFrom(&p, 1),
		Command:  openflow.FlowAdd,
		Priority: 100,
		BufferID: openflow.NoBuffer,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := openflow.Encode(uint32(i), fm)
		if _, err := openflow.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketMarshalParse(b *testing.B) {
	g := netpkt.NewSpoofGen(1, netpkt.FloodMixed, 128)
	pkts := make([]netpkt.Packet, 64)
	for i := range pkts {
		pkts[i] = g.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netpkt.Parse(pkts[i%len(pkts)].Marshal()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(itoa(n)+"rules", func(b *testing.B) {
			tbl := flowtable.New(0)
			g := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 0)
			now := netsim.Epoch
			for i := 0; i < n; i++ {
				p := g.Next()
				if _, err := tbl.Apply(openflow.FlowMod{
					Match: openflow.ExactFrom(&p, 1), Command: openflow.FlowAdd, Priority: 10,
					Actions: []openflow.Action{openflow.Output(2)},
				}, now); err != nil {
					b.Fatal(err)
				}
			}
			miss := g.Next()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.Lookup(&miss, 1, now, 64) // worst case: full scan
			}
		})
	}
}

func BenchmarkSymbolicExecution(b *testing.B) {
	progs, _ := apps.EvaluationSet()
	for _, prog := range progs {
		b.Run(prog.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := symexec.Explore(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConcreteInterpreter(b *testing.B) {
	prog, st := apps.L2Learning()
	st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(2)), appir.U16Value(2))
	pkt := netpkt.Packet{
		EthSrc:  netpkt.MACFromUint64(1),
		EthDst:  netpkt.MACFromUint64(2),
		EthType: netpkt.EtherTypeIPv4,
		NwProto: netpkt.ProtoUDP,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appir.Exec(prog, st, &pkt, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheIngestEmit(b *testing.B) {
	eng := netsim.NewEngine()
	c := dpcache.New(eng, dpcache.Config{QueueCapacity: 1 << 16, InitialRatePPS: 0},
		sinkFunc(func(uint64, uint16, netpkt.Packet, time.Duration) {}))
	g := netpkt.NewSpoofGen(1, netpkt.FloodMixed, 64)
	pkts := make([]netpkt.Packet, 1024)
	for i := range pkts {
		pkts[i] = g.Next()
		pkts[i].NwTOS = dpcache.EncodeInPortTOS(uint16(i % 8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Ingest(0, pkts[i%len(pkts)])
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
