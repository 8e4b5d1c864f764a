package soak

import (
	"floodguard/internal/netpkt"
)

// attacker is one adaptive adversary bound to its own ingress port. All
// attack traffic is TCP SYN (the paper's protocol-queue design then
// isolates it from the benign UDP population at the cache tier), with
// sources in the attacker address plan so replay ground truth can split
// the populations.
type attacker struct {
	profile Profile
	port    uint16
	peak    float64 // pps at full blast
	start   int     // first attacking window
	stop    int     // first window after the attack ends

	// pulse shape (ProfilePulse only).
	pulsePeriod int
	pulseDuty   int

	srcBase uint32
	n       uint64  // packet counter (header diversity)
	acc     float64 // fractional packets-per-window accumulator
}

// rampCapWindows bounds the ramp profile's onset: at AttackFactor 6 and
// the derived 3x-benign floor, a 32-window ramp crosses the floor with
// ~8 windows of CUSUM accumulation left to the blame threshold, inside
// the default 12-window detection deadline.
const rampCapWindows = 32

// attackersFor expands a profile selection into the per-run attacker
// roster order (fixed: ramp, pulse, rotate, slow for "all").
func attackersFor(p Profile) []Profile {
	if p == ProfileAll {
		return Profiles()
	}
	return []Profile{p}
}

// buildAttackers places one attacker per roster profile on the ports
// just above the benign range. Rates are scaled from the per-port
// benign rate b: adaptive attackers peak at AttackFactor*b (well above
// the 3b blame floor the attribution config derives), the slow attacker
// runs at 2b — below the floor by design, so it must never be blamed.
func buildAttackers(cfg *Config) []*attacker {
	b := cfg.BenignPPS / float64(cfg.Ports)
	w := cfg.Windows()
	tenth := w / 10
	if tenth < 1 {
		tenth = 1
	}
	var out []*attacker
	for i, p := range attackersFor(cfg.Profile) {
		a := &attacker{
			profile: p,
			port:    uint16(cfg.Ports + 1 + i),
			peak:    cfg.AttackFactor * b,
			start:   tenth,
			stop:    w - tenth,
			srcBase: attackSrcBase + uint32(i)<<12,
		}
		switch p {
		case ProfilePulse:
			a.pulsePeriod = 16
			a.pulseDuty = 8
		case ProfileRotate:
			// Stops at 60% of the run so the heal-after-calm deadline has
			// room to be checked before the run ends.
			a.stop = w * 6 / 10
			if a.stop <= a.start {
				a.stop = a.start + 1
			}
		case ProfileSlow:
			a.peak = 2 * b
			a.start = 0
		}
		out = append(out, a)
	}
	// Rate-keyed TCP-tier attackers ride the ports above the roster.
	// SynFlood runs the roster's attack span; the stealthy profiles run
	// the whole run (their point is evidence accumulation, not rate).
	base := uint16(cfg.Ports + 1 + len(out))
	tcpProfiles := []struct {
		p   Profile
		pps float64
	}{
		{ProfileSynFlood, cfg.SynFloodPPS},
		{ProfileSlowShake, cfg.SlowShakePPS},
		{ProfileMalformed, cfg.MalformedPPS},
	}
	for _, tp := range tcpProfiles {
		if tp.pps <= 0 {
			continue
		}
		a := &attacker{
			profile: tp.p,
			port:    base,
			peak:    tp.pps,
			start:   tenth,
			stop:    w - tenth,
			srcBase: attackSrcBase + uint32(base)<<12,
		}
		if tp.p != ProfileSynFlood {
			a.start = 0
			a.stop = w
		}
		base++
		out = append(out, a)
	}
	return out
}

// exemptFromDetection reports whether a profile is excluded from the
// port-rate detection deadline: the slow DDoS stays below the rate
// floor by design, and the stealthy TCP profiles are judged by
// per-source handshake evidence, not port rate.
func exemptFromDetection(p Profile) bool {
	return p == ProfileSlow || p == ProfileSlowShake || p == ProfileMalformed
}

// rate returns the attacker's offered rate for window w, given whether
// its port is currently blamed — the adaptive hook: the pulse attacker
// goes quiet the moment it is blamed (dodging the detector), resuming
// only after it heals.
func (a *attacker) rate(w int, blamed bool) float64 {
	if w < a.start || w >= a.stop {
		return 0
	}
	switch a.profile {
	case ProfileRamp:
		// A quarter of the attack span, capped: with the attribution
		// baseline frozen above the rate floor, a slower ramp is still
		// detected, but later than the detectWindows deadline the liveness
		// checker enforces — sub-deadline evasion is the slow profile's
		// role, not ramp's.
		ramp := (a.stop - a.start) / 4
		if ramp > rampCapWindows {
			ramp = rampCapWindows
		}
		if ramp < 1 {
			ramp = 1
		}
		frac := float64(w-a.start+1) / float64(ramp)
		if frac > 1 {
			frac = 1
		}
		return a.peak * frac
	case ProfilePulse:
		if blamed {
			return 0
		}
		if (w-a.start)%a.pulsePeriod < a.pulseDuty {
			return a.peak
		}
		return 0
	default: // rotate, slow: constant
		return a.peak
	}
}

// packetsFor converts the window rate into a whole packet count,
// carrying the fraction forward so long runs offer exactly rate*time.
func (a *attacker) packetsFor(w int, blamed bool, window float64) int {
	a.acc += a.rate(w, blamed) * window
	n := int(a.acc)
	a.acc -= float64(n)
	return n
}

// Malformed-segment templates the ProfileMalformed attacker cycles:
// misaligned option bytes (an offset no valid header can express) and a
// truncated option TLV (length byte below the two-byte minimum).
var (
	malformedMisaligned = []byte{1, 1, 1}
	malformedBadTLV     = []byte{2, 1, 0, 0}
)

// packet emits the attacker's next SYN. The rotate profile moves to a
// fresh source every window (dodging the source heavy-hitter test); the
// others keep one fixed source. Destination fields cycle so every
// packet is a distinct microflow (guaranteed table miss). The malformed
// profile cycles contradictory flags, misaligned option lengths, and
// truncated option TLVs — each a distinct guard verdict.
func (a *attacker) packet(w int) netpkt.Packet {
	src := a.srcBase
	if a.profile == ProfileRotate {
		src += uint32(w) % 997
	}
	n := a.n
	a.n++
	p := netpkt.Packet{
		EthSrc:   netpkt.MAC{0x02, 0xaa, byte(a.port), byte(n >> 16), byte(n >> 8), byte(n)},
		EthDst:   netpkt.MAC{0x02, 0x0b, 0x00, 0x00, 0x00, 0x02},
		EthType:  netpkt.EtherTypeIPv4,
		NwSrc:    netpkt.IPv4(src),
		NwDst:    netpkt.IPv4(attackDstBase | uint32(n&0xFF)),
		NwProto:  netpkt.ProtoTCP,
		TpSrc:    uint16(1024 + n%60000),
		TpDst:    uint16(80),
		TCPFlags: netpkt.TCPSyn,
	}
	if a.profile == ProfileMalformed {
		switch n % 3 {
		case 0:
			p.TCPFlags = netpkt.TCPSyn | netpkt.TCPFin
		case 1:
			p.TCPOptions = malformedMisaligned
		default:
			p.TCPOptions = malformedBadTLV
		}
	}
	return p
}
