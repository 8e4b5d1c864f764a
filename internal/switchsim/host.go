package switchsim

import (
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
)

// Host is an end host attached to a switch port. It can send packets
// upstream and observes deliveries.
type Host struct {
	Name string
	MAC  netpkt.MAC
	IP   netpkt.IPv4

	eng    *netsim.Engine
	sw     *Switch
	portNo uint16
	up     *netsim.Link

	// OnReceive, when set, observes every delivered packet.
	OnReceive func(pkt netpkt.Packet)

	received uint64
}

// NewHost creates a host and attaches it to sw on portNo with symmetric
// link characteristics.
func NewHost(eng *netsim.Engine, sw *Switch, name string, portNo uint16, mac netpkt.MAC, ip netpkt.IPv4, bandwidthBits float64, latency time.Duration) *Host {
	h := &Host{
		Name:   name,
		MAC:    mac,
		IP:     ip,
		eng:    eng,
		sw:     sw,
		portNo: portNo,
		up:     netsim.NewLink(eng, bandwidthBits, latency),
	}
	sw.AttachPort(portNo, h, bandwidthBits, latency)
	return h
}

// Received returns the delivered packet count.
func (h *Host) Received() uint64 { return h.received }

// DeliverFromSwitch implements PortPeer.
func (h *Host) DeliverFromSwitch(pkt netpkt.Packet) {
	h.received++
	if h.OnReceive != nil {
		h.OnReceive(pkt)
	}
}

// Send transmits one packet toward the switch.
func (h *Host) Send(pkt netpkt.Packet) {
	h.up.Send(estimateFrameLen(&pkt), func() {
		h.sw.Inject(pkt, h.portNo)
	})
}

// patchPeer forwards frames into another switch's ingress port.
type patchPeer struct {
	sw   *Switch
	port uint16
}

// DeliverFromSwitch implements PortPeer.
func (p patchPeer) DeliverFromSwitch(pkt netpkt.Packet) { p.sw.Inject(pkt, p.port) }

// Patch connects two switches with a symmetric inter-switch link:
// a's port pa and b's port pb become each other's peers.
func Patch(a *Switch, pa uint16, b *Switch, pb uint16, bandwidthBits float64, latency time.Duration) {
	a.AttachPort(pa, patchPeer{sw: b, port: pb}, bandwidthBits, latency)
	b.AttachPort(pb, patchPeer{sw: a, port: pa}, bandwidthBits, latency)
}

// Flooder drives the saturation attack from a host: spoofed table-miss
// packets at a configured rate.
type Flooder struct {
	host   *Host
	gen    *netpkt.SpoofGen
	rate   float64 // packets per second
	ticker *netsim.Ticker
	sent   uint64
}

// NewFlooder creates an attack generator on host; call SetRate and Start.
func NewFlooder(host *Host, seed int64, proto netpkt.FloodProtocol, payloadLen int) *Flooder {
	return &Flooder{
		host: host,
		gen:  netpkt.NewSpoofGen(seed, proto, payloadLen),
	}
}

// Start begins flooding at rate packets/second (0 stops).
func (f *Flooder) Start(rate float64) {
	f.Stop()
	f.rate = rate
	if rate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	f.ticker = f.host.eng.NewTicker(interval, func() {
		f.sent++
		f.host.Send(f.gen.Next())
	})
}

// Stop halts the flood.
func (f *Flooder) Stop() {
	if f.ticker != nil {
		f.ticker.Stop()
		f.ticker = nil
	}
}
