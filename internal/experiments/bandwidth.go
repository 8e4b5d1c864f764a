package experiments

import (
	"fmt"
	"io"
	"time"

	"floodguard/internal/switchsim"
)

// BandwidthPoint is one point of a Figure 10/11 curve.
type BandwidthPoint struct {
	AttackPPS     float64
	BandwidthBits float64
}

// BandwidthCurve is one with/without-FloodGuard series.
type BandwidthCurve struct {
	Label  string
	Points []BandwidthPoint
}

// BandwidthResult holds a full Figure 10 or 11 reproduction.
type BandwidthResult struct {
	Title    string
	Profile  string
	Baseline BandwidthCurve // without FloodGuard
	Guarded  BandwidthCurve // with FloodGuard
}

// BandwidthSeed is the flood seed of the Figure 10/11 curves.
const BandwidthSeed = 7

// bandwidthSamples is how many goodput readings a Figure 10/11 point
// averages: a 3 s measurement window.
const bandwidthSamples = 30

// measure runs the measurement protocol every testbed point shares, on a
// warmed-up testbed whose attack has just started: a 3 s attack warm-in
// (detection, migration, EWMA convergence), then `samples` goodput-share
// readings 100 ms apart. It returns their mean and the controller's
// packet_in rate over the sampled window.
func (tb *Testbed) measure(samples int) (share, packetInRate float64) {
	const every = 100 * time.Millisecond
	tb.Eng.RunFor(3 * time.Second)
	ins := tb.Ctrl.PacketIns()
	for i := 0; i < samples; i++ {
		tb.Eng.RunFor(every)
		share += tb.Switch.GoodputShare()
	}
	window := time.Duration(samples) * every
	return share / float64(samples), float64(tb.Ctrl.PacketIns()-ins) / window.Seconds()
}

// MeasureBandwidth runs one testbed at one attack rate, flooding from
// seed, and returns the achievable benign bandwidth in bits/second. The
// benign load is modelled as a fluid probe: the switch's goodput share —
// which emerges from the observed miss rate, buffer state and per-packet
// lookup cost — is sampled over the measurement window and scaled by the
// profile's data rate.
func MeasureBandwidth(profile switchsim.Profile, withFG bool, attackPPS float64, seed int64) (float64, error) {
	tb, err := NewTestbed(TestbedConfig{
		Profile:            profile,
		WithFloodGuard:     withFG,
		GuardConfig:        DefaultGuardConfig(),
		ControllerBaseCost: 200 * time.Microsecond,
		FloodSeed:          seed,
	})
	if err != nil {
		return 0, err
	}
	defer tb.Close()
	tb.WarmUp()
	if attackPPS > 0 {
		tb.Flooder.Start(attackPPS)
	}
	share, _ := tb.measure(bandwidthSamples)
	return share * profile.DataRateBits, nil
}

// RunBandwidthSweep reproduces Figure 10 (software profile) or Figure 11
// (hardware profile): a one-seed sweep over rates, split into its two
// curves.
func RunBandwidthSweep(title string, profile switchsim.Profile, rates []float64) (*BandwidthResult, error) {
	sweep, err := RunSweep(SweepConfig{
		Profiles: []switchsim.Profile{profile},
		Rates:    rates,
		Seeds:    []int64{BandwidthSeed},
		Shards:   1,
	})
	if err != nil {
		return nil, err
	}
	res := &BandwidthResult{
		Title:    title,
		Profile:  profile.Name,
		Baseline: BandwidthCurve{Label: "OpenFlow"},
		Guarded:  BandwidthCurve{Label: "OpenFlow + FloodGuard"},
	}
	for _, p := range sweep.Points {
		res.Baseline.Points = append(res.Baseline.Points, BandwidthPoint{AttackPPS: p.AttackPPS, BandwidthBits: p.BaselineBits})
		res.Guarded.Points = append(res.Guarded.Points, BandwidthPoint{AttackPPS: p.AttackPPS, BandwidthBits: p.FloodGuardBits})
	}
	return res, nil
}

// Fig10Rates is the sweep of the software environment (dysfunctional at
// 500 PPS per the paper).
var Fig10Rates = []float64{0, 50, 100, 130, 200, 300, 400, 500}

// Fig11Rates is the sweep of the hardware environment (near-dead at
// 1000 PPS).
var Fig11Rates = []float64{0, 50, 100, 150, 200, 400, 600, 800, 1000}

// RunFig10 reproduces Figure 10.
func RunFig10() (*BandwidthResult, error) {
	return RunBandwidthSweep("Figure 10: bandwidth vs attack rate (software environment)",
		switchsim.SoftwareProfile(), Fig10Rates)
}

// RunFig11 reproduces Figure 11.
func RunFig11() (*BandwidthResult, error) {
	return RunBandwidthSweep("Figure 11: bandwidth vs attack rate (hardware environment)",
		switchsim.HardwareProfile(), Fig11Rates)
}

// Print renders the result as the paper's two series.
func (r *BandwidthResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s\n", r.Title)
	fmt.Fprintf(w, "%-12s %22s %22s\n", "attack(PPS)", r.Baseline.Label, r.Guarded.Label)
	for i := range r.Baseline.Points {
		fmt.Fprintf(w, "%-12.0f %22s %22s\n",
			r.Baseline.Points[i].AttackPPS,
			humanBits(r.Baseline.Points[i].BandwidthBits),
			humanBits(r.Guarded.Points[i].BandwidthBits))
	}
}

func humanBits(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f Gbps", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f Mbps", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f Kbps", b/1e3)
	default:
		return fmt.Sprintf("%.0f bps", b)
	}
}

// CollapsePoint is one row of the §II baseline: the software switch's
// health under a bare table-miss flood.
type CollapsePoint struct {
	AttackPPS    float64
	GoodputShare float64
	BufferUsed   int
	AmplifiedIns uint64
	PacketIns    uint64
}

// RunSec2Baseline reproduces the §II claim that ~500 PPS of table-miss
// UDP dysfunctions a software switch (and demonstrates buffer exhaustion
// plus packet_in amplification along the way).
func RunSec2Baseline() ([]CollapsePoint, error) {
	var out []CollapsePoint
	for _, rate := range []float64{0, 100, 250, 500, 600} {
		tb, err := NewTestbed(TestbedConfig{
			Profile:            switchsim.SoftwareProfile(),
			ControllerBaseCost: 200 * time.Microsecond,
			// A deliberately slow controller, as in a loaded deployment:
			// buffered packets linger, so the buffer pressure shows.
			Apps:      []AppSpec{{Name: "l2_learning", Cost: 5 * time.Millisecond}},
			FloodSeed: 11,
		})
		if err != nil {
			return nil, err
		}
		tb.WarmUp()
		if rate > 0 {
			tb.Flooder.Start(rate)
		}
		tb.Eng.RunFor(5 * time.Second)
		st := tb.Switch.Stats()
		out = append(out, CollapsePoint{
			AttackPPS:    rate,
			GoodputShare: tb.Switch.GoodputShare(),
			BufferUsed:   st.BufferUsed,
			AmplifiedIns: st.AmplifiedIns,
			PacketIns:    st.PacketIns,
		})
		tb.Close()
	}
	return out, nil
}

// PrintCollapse renders the §II baseline table.
func PrintCollapse(w io.Writer, points []CollapsePoint) {
	fmt.Fprintln(w, "Section II baseline: software switch under table-miss UDP flood (no defense)")
	fmt.Fprintf(w, "%-12s %-14s %-12s %-14s %-12s\n", "attack(PPS)", "goodput-share", "buffer-used", "amplified-ins", "packet-ins")
	for _, p := range points {
		fmt.Fprintf(w, "%-12.0f %-14.3f %-12d %-14d %-12d\n",
			p.AttackPPS, p.GoodputShare, p.BufferUsed, p.AmplifiedIns, p.PacketIns)
	}
}
