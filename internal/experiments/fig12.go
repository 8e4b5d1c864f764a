package experiments

import (
	"fmt"
	"io"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/switchsim"
)

// CPUSample is one point of a per-app utilization timeline.
type CPUSample struct {
	At   time.Duration // since scenario start
	Util float64       // busy fraction of the sampling window
}

// CPUTimelineResult holds a Figure 12 reproduction: per-application CPU
// utilization over time under a 100 PPS attack with FloodGuard.
type CPUTimelineResult struct {
	Apps        []string
	Series      map[string][]CPUSample
	AttackStart time.Duration
	AttackStop  time.Duration
	Detection   time.Duration // when FloodGuard entered Init
}

// Fig12Apps are the five evaluation applications with their modelled
// costs; of_firewall's deeper program is the most expensive, mirroring
// its Figure 13 standing.
var Fig12Apps = []AppSpec{
	{Name: "l2_learning", Cost: 1200 * time.Microsecond},
	{Name: "ip_balancer", Cost: 1600 * time.Microsecond},
	{Name: "l3_learning", Cost: 1400 * time.Microsecond},
	{Name: "of_firewall", Cost: 2500 * time.Microsecond},
	{Name: "mac_blocker", Cost: 800 * time.Microsecond},
}

// RunFig12 reproduces Figure 12: the five applications run together in
// the hardware environment; light benign chatter sets the baseline; the
// attacker floods at 100 PPS starting at 0.6 s. With FloodGuard the
// utilization spikes, then falls to a medium level once migration kicks
// in (the cache replays under rate limit), and returns to the baseline
// after the burst drains.
func RunFig12() (*CPUTimelineResult, error) {
	guardCfg := DefaultGuardConfig()
	guardCfg.Detection.SampleInterval = 25 * time.Millisecond
	guardCfg.Detection.RateThresholdPPS = 40
	guardCfg.Detection.QuietPeriod = 200 * time.Millisecond
	guardCfg.RateLimit.MinPPS = 10
	guardCfg.RateLimit.MaxPPS = 60

	tb, err := NewTestbed(TestbedConfig{
		Profile:            switchsim.HardwareProfile(),
		Apps:               Fig12Apps,
		WithFloodGuard:     true,
		GuardConfig:        guardCfg,
		ControllerBaseCost: 200 * time.Microsecond,
		FloodSeed:          23,
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tb.WarmUp()

	res := &CPUTimelineResult{Series: make(map[string][]CPUSample)}
	for _, a := range Fig12Apps {
		res.Apps = append(res.Apps, a.Name)
	}

	// Light benign chatter to unlearned destinations keeps a small but
	// nonzero packet_in baseline.
	chat := 0
	chatTicker := tb.Eng.NewTicker(200*time.Millisecond, func() {
		chat++
		p := tb.BenignFlow().Packet(100)
		p.EthDst = netpkt.MACFromUint64(uint64(0x100 + chat%7))
		p.NwDst = netpkt.IPv4(0x0a0000f0 + uint32(chat%7))
		tb.Alice.Send(p)
	})
	defer chatTicker.Stop()

	const window = 50 * time.Millisecond
	start := tb.Eng.Now()
	res.AttackStart = 600 * time.Millisecond
	res.AttackStop = 1000 * time.Millisecond
	tb.Eng.Schedule(res.AttackStart, func() { tb.Flooder.Start(100) })
	tb.Eng.Schedule(res.AttackStop, func() { tb.Flooder.Stop() })

	for _, app := range tb.Ctrl.Apps() {
		app.TakeBusy() // reset accumulation
	}
	sampler := tb.Eng.NewTicker(window, func() {
		at := tb.Eng.Now().Sub(start)
		for _, app := range tb.Ctrl.Apps() {
			util := float64(app.TakeBusy()) / float64(window)
			res.Series[app.Name()] = append(res.Series[app.Name()], CPUSample{At: at, Util: util})
		}
	})
	defer sampler.Stop()

	tb.Eng.RunFor(2500 * time.Millisecond)

	for _, tr := range tb.Guard.Transitions() {
		if tr.To.String() == "init" {
			res.Detection = tr.At.Sub(start)
			break
		}
	}
	return res, nil
}

// Print renders the timeline as columns (one per app), in percent.
func (r *CPUTimelineResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: CPU utilization under the flooding attack (100 PPS, with FloodGuard)")
	fmt.Fprintf(w, "attack starts at %v, stops at %v; detected at %v\n",
		r.AttackStart, r.AttackStop, r.Detection)
	fmt.Fprintf(w, "%-8s", "t(s)")
	for _, a := range r.Apps {
		fmt.Fprintf(w, " %14s", a)
	}
	fmt.Fprintln(w)
	if len(r.Apps) == 0 {
		return
	}
	n := len(r.Series[r.Apps[0]])
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-8.2f", r.Series[r.Apps[0]][i].At.Seconds())
		for _, a := range r.Apps {
			fmt.Fprintf(w, " %13.1f%%", r.Series[a][i].Util*100)
		}
		fmt.Fprintln(w)
	}
}
