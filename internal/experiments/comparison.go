package experiments

import (
	"fmt"
	"io"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/switchsim"
	"floodguard/internal/tcpguard"
)

// DefenseKind selects the defense under comparison.
type DefenseKind int

// Compared defenses.
const (
	DefenseNone DefenseKind = iota
	DefenseAvantGuard
	DefenseFloodGuard
)

// String names the defense.
func (d DefenseKind) String() string {
	switch d {
	case DefenseAvantGuard:
		return "avantguard"
	case DefenseFloodGuard:
		return "floodguard"
	default:
		return "none"
	}
}

// ComparisonCell is one (defense, flood protocol) measurement.
type ComparisonCell struct {
	Defense      DefenseKind
	Flood        netpkt.FloodProtocol
	GoodputShare float64
	// PacketInRate is the rate of data-plane packet_ins still reaching
	// the controller in steady state.
	PacketInRate float64
}

// RunComparison reproduces the paper's §III positioning against
// AvantGuard: its SYN proxy defeats TCP floods but is "invalid to other
// protocols", while FloodGuard is protocol-independent. Every defense is
// attacked with every flood family at attackPPS on the software profile.
func RunComparison(attackPPS float64) ([]ComparisonCell, error) {
	var out []ComparisonCell
	floods := []netpkt.FloodProtocol{netpkt.FloodTCP, netpkt.FloodUDP, netpkt.FloodICMP, netpkt.FloodMixed}
	for _, defense := range []DefenseKind{DefenseNone, DefenseAvantGuard, DefenseFloodGuard} {
		for _, flood := range floods {
			cell, err := runComparisonCell(defense, flood, attackPPS)
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

func runComparisonCell(defense DefenseKind, flood netpkt.FloodProtocol, attackPPS float64) (ComparisonCell, error) {
	cfg := TestbedConfig{
		Profile:            switchsim.SoftwareProfile(),
		WithFloodGuard:     defense == DefenseFloodGuard,
		GuardConfig:        DefaultGuardConfig(),
		ControllerBaseCost: 200 * time.Microsecond,
		FloodSeed:          17,
		FloodProto:         flood,
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		return ComparisonCell{}, err
	}
	defer tb.Close()
	tb.WarmUp()

	if defense == DefenseAvantGuard {
		// AvantGuard's connection migration is a SYN proxy in front of the
		// switch's miss path — the fast stack's SYN-proxy tier. A
		// table-miss TCP segment reaches the switch only when the proxy
		// passes it (a completed handshake); everything else is not the
		// proxy's business and misses to the controller as usual.
		proxy := tcpguard.New(tcpguard.Config{})
		gen := netpkt.NewSpoofGen(cfg.FloodSeed+1, flood, 64)
		tk := tb.Eng.NewTicker(time.Duration(float64(time.Second)/attackPPS), func() {
			pkt := gen.Next()
			if pkt.IsIP() && pkt.NwProto == netpkt.ProtoTCP && tb.Switch.Table().Peek(&pkt, 3) == nil &&
				proxy.Process(0, tb.Switch.DPID, 3, &pkt) != tcpguard.ActionPass {
				return
			}
			tb.Switch.Inject(pkt, 3)
		})
		defer tk.Stop()
	} else {
		tb.Flooder.Start(attackPPS)
	}
	share, rate := tb.measure(20)
	return ComparisonCell{
		Defense:      defense,
		Flood:        flood,
		GoodputShare: share,
		PacketInRate: rate,
	}, nil
}

// PrintComparison renders the defense × protocol matrix.
func PrintComparison(w io.Writer, cells []ComparisonCell, attackPPS float64) {
	fmt.Fprintf(w, "Defense comparison at %.0f PPS (software profile): goodput share / controller packet_in rate\n", attackPPS)
	fmt.Fprintf(w, "%-12s %14s %14s %14s %14s\n", "defense", "tcp-flood", "udp-flood", "icmp-flood", "mixed-flood")
	byDefense := map[DefenseKind]map[netpkt.FloodProtocol]ComparisonCell{}
	for _, c := range cells {
		if byDefense[c.Defense] == nil {
			byDefense[c.Defense] = map[netpkt.FloodProtocol]ComparisonCell{}
		}
		byDefense[c.Defense][c.Flood] = c
	}
	for _, d := range []DefenseKind{DefenseNone, DefenseAvantGuard, DefenseFloodGuard} {
		fmt.Fprintf(w, "%-12s", d)
		for _, f := range []netpkt.FloodProtocol{netpkt.FloodTCP, netpkt.FloodUDP, netpkt.FloodICMP, netpkt.FloodMixed} {
			c := byDefense[d][f]
			fmt.Fprintf(w, " %6.2f/%-5.0fpps", c.GoodputShare, c.PacketInRate)
		}
		fmt.Fprintln(w)
	}
}
