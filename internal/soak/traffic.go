package soak

import (
	"math/rand"

	"floodguard/internal/netpkt"
	"floodguard/internal/rtc"
)

// Address plan: benign sources live in 10.0.0.0/8 (one address per
// flow), benign TCP handshake clients in 172.16.0.0/12, attacker
// sources in 198.51.100.0/24 and up. Replay ground truth classifies by
// source prefix, so the populations must never overlap.
const (
	benignSrcBase  = uint32(0x0A000000) // 10.0.0.0
	benignDstBase  = uint32(0xC0A80000) // 192.168.0.0
	attackSrcBase  = uint32(0xC6336400) // 198.51.100.0
	attackDstBase  = uint32(0xCB007100) // 203.0.113.0
	tcpClientBase  = uint32(0xAC100000) // 172.16.0.0
	tcpServerAddr  = uint32(0xC0A8FF01) // 192.168.255.1 — outside the benign dst /16 low range
	benignSrcOctet = 10
)

// isBenignSrc is the replay-side ground-truth classifier.
func isBenignSrc(src netpkt.IPv4) bool { return uint32(src)>>24 == benignSrcOctet }

// isTCPClientSrc classifies the benign TCP connection plan (172.16/12).
func isTCPClientSrc(src netpkt.IPv4) bool { return uint32(src)&0xFFF00000 == tcpClientBase }

// tcpConnGen mints the benign TCP connection attempts: each connection
// is a distinct (client source, source port) tuple against one fixed
// server, so every SYN is a table miss and every handshake a distinct
// guard conn-table entry. Pure function of the connection counter —
// deterministic across runs.
type tcpConnGen struct {
	cfg  *Config
	next uint64 // connection counter
	syns uint64 // cumulative SYNs offered
}

// fillSyn writes the next connection's SYN and its ingress port into it.
func (g *tcpConnGen) fillSyn(it *rtc.Item) {
	id := g.next
	g.next++
	g.syns++
	p := &it.Pkt
	p.EthSrc = netpkt.MAC{0x02, 0x10, byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
	p.EthDst = netpkt.MAC{0x02, 0x0b, 0x00, 0x00, 0x00, 0x02}
	p.EthType, p.HasVLAN, p.VLANID, p.VLANPCP, p.ARPOp = netpkt.EtherTypeIPv4, false, 0, 0, 0
	p.NwSrc = netpkt.IPv4(tcpClientBase | uint32(id%(1<<20)))
	p.NwDst = netpkt.IPv4(tcpServerAddr)
	p.NwProto, p.NwTOS = netpkt.ProtoTCP, 0
	p.TpSrc = uint16(1024 + id%60000)
	p.TpDst = 80
	p.TCPFlags, p.TCPSeq, p.TCPAck, p.TCPOptions = netpkt.TCPSyn, uint32(id)*2654435761+1, 0, nil
	p.PayloadLen = 0
	it.InPort = uint16(1 + id%uint64(g.cfg.Ports))
}

// benignGen draws the benign workload: a zipf head over the flow
// population mixed with a sequential tail sweep, so the head produces
// realistic skew while the sweep guarantees the whole distinct-flow
// population is actually exercised.
type benignGen struct {
	cfg  *Config
	rng  *rand.Rand
	zipf *rand.Zipf

	sweep   int     // sequential tail cursor
	zipfAcc float64 // zipf-vs-sweep share accumulator

	touched  []uint64 // flow-ID bitmap
	distinct int

	hotInj  uint64 // cumulative injections that hit an installed rule
	missInj uint64 // cumulative injections bound for the cache tier
}

func newBenignGen(cfg *Config) *benignGen {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0beef))
	return &benignGen{
		cfg:     cfg,
		rng:     rng,
		zipf:    rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Flows-1)),
		touched: make([]uint64, (cfg.Flows+63)/64),
	}
}

// port maps a benign flow to its ingress port (1..Ports).
func (g *benignGen) port(flow int) uint16 {
	return uint16(1 + flow%g.cfg.Ports)
}

// writeFlow writes benign flow id into *p as a UDP packet, every field:
// the harness refills one item per packet, and writes field by field
// because a composite literal stored through a pointer is built on the
// stack and then copied. Every field is a pure function of the id, so an
// installed rule for a hot flow matches every packet of that flow
// exactly.
func writeFlow(p *netpkt.Packet, flow int) {
	id := uint32(flow)
	p.EthSrc = netpkt.MAC{0x02, 0x0a, byte(id >> 16), byte(id >> 8), byte(id), 0x01}
	p.EthDst = netpkt.MAC{0x02, 0x0b, 0x00, 0x00, 0x00, 0x02}
	p.EthType, p.HasVLAN, p.VLANID, p.VLANPCP, p.ARPOp = netpkt.EtherTypeIPv4, false, 0, 0, 0
	p.NwSrc = netpkt.IPv4(benignSrcBase | (id & 0x00FFFFFF))
	p.NwDst = netpkt.IPv4(benignDstBase | (id & 0xFFFF))
	p.NwProto, p.NwTOS = netpkt.ProtoUDP, 0
	p.TpSrc = uint16(1024 + id%32768)
	p.TpDst = uint16(53 + id%512)
	p.TCPFlags, p.TCPSeq, p.TCPAck, p.TCPOptions = 0, 0, 0, nil
	p.PayloadLen = 0
}

// fill draws one benign packet into it, with its ingress port.
func (g *benignGen) fill(it *rtc.Item) {
	var flow int
	g.zipfAcc += g.cfg.ZipfShare
	if g.zipfAcc >= 1 {
		g.zipfAcc--
		flow = int(g.zipf.Uint64())
	} else {
		flow = g.sweep
		g.sweep++
		if g.sweep >= g.cfg.Flows {
			g.sweep = 0
		}
	}
	if w, b := flow/64, uint64(1)<<(flow%64); g.touched[w]&b == 0 {
		g.touched[w] |= b
		g.distinct++
	}
	if flow < g.cfg.HotFlows {
		g.hotInj++
	} else {
		g.missInj++
	}
	writeFlow(&it.Pkt, flow)
	it.InPort = g.port(flow)
}
