package main

import (
	"math/rand"

	"floodguard/internal/netpkt"
)

// Ingress port plan: benign hosts hang off ports 1..benignPorts, the
// attacker owns spoofPort. All of them map to shard 0 (Shards = 1).
const (
	benignPorts = 8
	spoofPort   = 9
	// payloadLen pads every generated frame to the 60-byte Ethernet
	// minimum for UDP — the smallest frame, where per-packet cost is all
	// there is.
	payloadLen = 18
)

// subSeed derives an independent generator seed from the run seed
// (splitmix64 finaliser), so the MAC roster, flow set, spoof pool, soak
// and flood seeds all move with -seed but not with each other.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) &^ (1 << 63))
}

// Seed streams.
const (
	streamRoster = iota + 1
	streamFlows
	streamSpoof
	streamSoak
	streamFlood
)

// wireSizes scales one wire workload's inputs.
type wireSizes struct {
	hosts      int // learned MACs == derived l2_learning rules
	flows      int // benign flows
	exactFlows int // of which covered by an installed exact rule
	spoofPool  int // pre-marshalled spoofed frames (0 = none)
}

// wireInputs is everything a wire workload feeds the engine, generated
// from the seed during set-up. The program under test sees only frames
// and flow_mods.
type wireInputs struct {
	hostMAC  []netpkt.MAC
	hostPort []uint16

	flowPkt  []netpkt.Packet // parsed view of each benign flow (rule building, checks)
	flowPort []uint16
	benign   [][]byte // one pre-marshalled frame per benign flow
	spoof    [][]byte // spoofed frames, every one a distinct microflow key
}

func genWireInputs(seed int64, sz wireSizes) *wireInputs {
	in := &wireInputs{}
	rr := rand.New(rand.NewSource(subSeed(seed, streamRoster)))
	seen := make(map[netpkt.MAC]bool, sz.hosts)
	for len(in.hostMAC) < sz.hosts {
		m := netpkt.MACFromUint64(rr.Uint64())
		m[0] &^= 0x01 // unicast
		if seen[m] {
			continue
		}
		seen[m] = true
		in.hostMAC = append(in.hostMAC, m)
		in.hostPort = append(in.hostPort, uint16(1+len(in.hostPort)%benignPorts))
	}

	fr := rand.New(rand.NewSource(subSeed(seed, streamFlows)))
	for f := 0; f < sz.flows; f++ {
		src, dst := fr.Intn(sz.hosts), fr.Intn(sz.hosts)
		p := netpkt.Flow{
			SrcMAC: in.hostMAC[src], DstMAC: in.hostMAC[dst],
			SrcIP:   netpkt.IPv4(0x0a000000 | uint32(src+1)),
			DstIP:   netpkt.IPv4(0x0a000000 | uint32(dst+1)),
			Proto:   netpkt.ProtoUDP,
			SrcPort: uint16(1024 + fr.Intn(60000)), DstPort: uint16(1024 + fr.Intn(60000)),
		}.Packet(payloadLen)
		in.flowPkt = append(in.flowPkt, p)
		in.flowPort = append(in.flowPort, in.hostPort[src])
		in.benign = append(in.benign, p.Marshal())
	}

	if sz.spoofPool > 0 {
		sg := netpkt.NewSpoofGen(subSeed(seed, streamSpoof), netpkt.FloodMixed, payloadLen)
		in.spoof = make([][]byte, sz.spoofPool)
		for i := range in.spoof {
			p := sg.Next()
			in.spoof[i] = p.Marshal()
		}
	}
	return in
}

// probeFrames returns one frame per learned MAC, addressed to it from a
// source no exact rule covers: after the proactive install every one of
// them must be forwarded by its dl_dst rule.
func (in *wireInputs) probeFrames() [][]byte {
	out := make([][]byte, len(in.hostMAC))
	for i, m := range in.hostMAC {
		p := netpkt.Flow{
			SrcMAC: netpkt.MACFromUint64(0x0200_0000_0000 | uint64(i)), DstMAC: m,
			SrcIP: netpkt.IPv4(0xc0a80001), DstIP: netpkt.IPv4(0x0a000000 | uint32(i+1)),
			Proto: netpkt.ProtoUDP, SrcPort: 7, DstPort: 7,
		}.Packet(payloadLen)
		out[i] = p.Marshal()
	}
	return out
}
