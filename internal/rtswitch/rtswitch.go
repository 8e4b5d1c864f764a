// Package rtswitch implements a real-time OpenFlow 1.0 switch: a flow
// table plus a TCP session to a controller, processing packets as they
// arrive on the wall clock. It is the functional counterpart of the
// capacity-modelling simulator in internal/switchsim, used to exercise
// the full protocol stack over real sockets.
package rtswitch

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// PortFunc receives frames forwarded out of a port.
type PortFunc func(pkt netpkt.Packet)

// Switch is a real-time OpenFlow switch connected to a controller over
// TCP. The flow table is partitioned by in_port%N shard ownership
// (flowtable.Sharded) with one small mutex per partition: an Inject
// locks only the ingress port's partition and a flow_mod locks only the
// partition owning its match (each partition in turn for an in_port
// wildcard), so rule application never takes a table-wide writer lock
// and never stalls forwarding on other ports. Controller stats scrapes
// read mutation-point mirrors and atomics, touching no partition lock.
type Switch struct {
	dpid  uint64
	parts *flowtable.Sharded
	// locks[i] guards partition i's rule list. Padded so two partitions
	// never share a line.
	locks []partitionLock

	mu      sync.Mutex // control plane: ports, buffer, conn, xid
	ports   map[uint16]PortFunc
	noFlood map[uint16]bool
	buffer  map[uint32]bufEntry
	nextBuf uint32
	conn    net.Conn
	xid     uint32

	bufferSlots int
	missSendLen int

	wg     sync.WaitGroup
	closed bool

	packetIns atomic.Uint64
	misses    atomic.Uint64
	forwarded atomic.Uint64
}

type bufEntry struct {
	pkt    netpkt.Packet
	inPort uint16
}

// partitionLock is one partition's lookup/mutation mutex, padded to a
// cache line so neighbouring partitions never false-share.
type partitionLock struct {
	mu sync.Mutex
	_  [56]byte
}

// Config parameterises a switch.
type Config struct {
	DPID        uint64
	TableSize   int // aggregate rule bound, split across partitions; 0 = unbounded
	BufferSlots int // default 256
	MissSendLen int // packet_in payload cap for buffered misses; default 128
	// Shards is the flow table partition count (in_port%Shards
	// ownership, one lock per partition); <= 0 picks GOMAXPROCS.
	Shards int
}

// New creates a disconnected switch.
func New(cfg Config) *Switch {
	if cfg.BufferSlots == 0 {
		cfg.BufferSlots = 256
	}
	if cfg.MissSendLen == 0 {
		cfg.MissSendLen = 128
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	return &Switch{
		dpid:        cfg.DPID,
		parts:       flowtable.NewSharded(cfg.Shards, cfg.TableSize),
		locks:       make([]partitionLock, cfg.Shards),
		ports:       make(map[uint16]PortFunc),
		noFlood:     make(map[uint16]bool),
		buffer:      make(map[uint32]bufEntry),
		bufferSlots: cfg.BufferSlots,
		missSendLen: cfg.MissSendLen,
	}
}

// AttachPort registers a delivery function for a port.
func (s *Switch) AttachPort(no uint16, fn PortFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ports[no] = fn
}

// SetNoFlood excludes a port from flood outputs.
func (s *Switch) SetNoFlood(no uint16, v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noFlood[no] = v
}

// Dial connects to the controller and completes the OpenFlow handshake.
// The message loop runs until Close or disconnect.
func (s *Switch) Dial(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("rtswitch: dial: %w", err)
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()

	s.wg.Add(1)
	go s.readLoop(conn)
	return nil
}

func (s *Switch) readLoop(conn net.Conn) {
	defer s.wg.Done()
	for {
		f, err := openflow.ReadMessage(conn)
		if err != nil {
			// EOF / closed-connection is the controller hanging up;
			// anything else is a framing error. Either way the session is
			// over and the loop exits.
			return
		}
		s.handle(f)
	}
}

func (s *Switch) send(m openflow.Message) {
	s.mu.Lock()
	conn := s.conn
	s.xid++
	xid := s.xid
	s.mu.Unlock()
	if conn == nil {
		return
	}
	_ = openflow.WriteMessage(conn, xid, m)
}

func (s *Switch) handle(f openflow.Framed) {
	switch m := f.Msg.(type) {
	case openflow.Hello:
		s.send(openflow.Hello{})
	case openflow.EchoRequest:
		s.send(openflow.EchoReply{Data: m.Data})
	case openflow.FeaturesRequest:
		s.mu.Lock()
		ports := make([]openflow.PhyPort, 0, len(s.ports))
		for no := range s.ports {
			ports = append(ports, openflow.PhyPort{PortNo: no, Name: fmt.Sprintf("eth%d", no)})
		}
		s.mu.Unlock()
		s.send(openflow.FeaturesReply{
			DatapathID: s.dpid,
			NBuffers:   uint32(s.bufferSlots),
			NTables:    1,
			Ports:      ports,
		})
	case openflow.FlowMod:
		err := s.applyMod(m)
		var release *bufEntry
		if err == nil && m.Command == openflow.FlowAdd && m.BufferID != openflow.NoBuffer {
			s.mu.Lock()
			if be, ok := s.buffer[m.BufferID]; ok {
				delete(s.buffer, m.BufferID)
				release = &be
			}
			s.mu.Unlock()
		}
		if err != nil {
			s.send(openflow.Error{ErrType: 3, Code: 0})
			return
		}
		if release != nil {
			s.apply(release.pkt, release.inPort, m.Actions)
		}
	case openflow.PacketOut:
		if m.BufferID != openflow.NoBuffer {
			s.mu.Lock()
			be, ok := s.buffer[m.BufferID]
			if ok {
				delete(s.buffer, m.BufferID)
			}
			s.mu.Unlock()
			if ok {
				s.apply(be.pkt, be.inPort, m.Actions)
			}
			return
		}
		pkt, err := netpkt.Parse(m.Data)
		if err != nil {
			return
		}
		s.apply(pkt, m.InPort, m.Actions)
	case openflow.BarrierRequest:
		s.send(openflow.BarrierReply{})
	case openflow.StatsRequest:
		s.mu.Lock()
		bufUsed := uint32(len(s.buffer))
		s.mu.Unlock()
		st := s.parts.Stats()
		s.send(openflow.StatsReply{Table: openflow.TableStats{
			ActiveRules:  uint32(s.parts.RuleCount()),
			MaxRules:     uint32(s.parts.Capacity()),
			BufferUsed:   bufUsed,
			BufferSize:   uint32(s.bufferSlots),
			LookupCount:  st.Lookups,
			MatchedCount: st.Matched,
		}})
	}
}

// Inject delivers a packet into the switch on inPort; safe from any
// goroutine.
func (s *Switch) Inject(pkt netpkt.Packet, inPort uint16) {
	// The hit path never materialises the frame: byte accounting only
	// needs the computed wire length. The lookup locks only the ingress
	// port's partition — a bounded critical section that never overlaps
	// with control-plane work on s.mu, nor with lookups or rule
	// mutations on any other partition.
	frameLen := pkt.WireLen()
	i := int(inPort) % s.parts.N()
	s.locks[i].mu.Lock()
	entry := s.parts.Partition(i).Lookup(&pkt, inPort, time.Now(), frameLen)
	s.locks[i].mu.Unlock()
	if entry != nil {
		s.forwarded.Add(1)
		s.apply(pkt, inPort, entry.SharedActions())
		return
	}
	// Miss: only now marshal, into pooled scratch. WriteMessage copies
	// the packet_in body before returning, so the frame can be released
	// right after send.
	fb := netpkt.GetFrame()
	fb.B = pkt.MarshalAppend(fb.B)
	frame := fb.B
	s.misses.Add(1)
	pi := openflow.PacketIn{
		TotalLen: uint16(frameLen),
		InPort:   inPort,
		Reason:   openflow.ReasonNoMatch,
	}
	s.mu.Lock()
	if len(s.buffer) < s.bufferSlots {
		id := s.nextBuf
		s.nextBuf++
		s.buffer[id] = bufEntry{pkt: pkt, inPort: inPort}
		pi.BufferID = id
		if len(frame) > s.missSendLen {
			frame = frame[:s.missSendLen]
		}
		pi.Data = frame
	} else {
		pi.BufferID = openflow.NoBuffer
		pi.Data = frame
	}
	s.mu.Unlock()
	s.packetIns.Add(1)
	s.send(pi)
	fb.Release()
}

// apply rewrites the packet and delivers it to the resolved ports.
func (s *Switch) apply(pkt netpkt.Packet, inPort uint16, actions []openflow.Action) {
	if len(actions) == 0 {
		return // drop
	}
	out := pkt
	outPorts := openflow.ApplyActions(&out, actions)
	s.mu.Lock()
	type delivery struct {
		fn  PortFunc
		pkt netpkt.Packet
	}
	var dels []delivery
	for _, pn := range outPorts {
		switch pn {
		case openflow.PortFlood, openflow.PortAll:
			for no, fn := range s.ports {
				if no == inPort || s.noFlood[no] {
					continue
				}
				dels = append(dels, delivery{fn, out})
			}
		case openflow.PortInPort:
			if fn, ok := s.ports[inPort]; ok {
				dels = append(dels, delivery{fn, out})
			}
		default:
			if fn, ok := s.ports[pn]; ok {
				dels = append(dels, delivery{fn, out})
			}
		}
	}
	s.mu.Unlock()
	for _, d := range dels {
		d.fn(d.pkt)
	}
}

// applyMod executes a flow_mod against its owning partition — or every
// partition in turn when the match wildcards in_port — holding only one
// partition lock at a time. There is no table-wide writer lock: rule
// application on one port's partition proceeds concurrently with
// forwarding on every other.
func (s *Switch) applyMod(m openflow.FlowMod) error {
	now := time.Now()
	if i, owned := s.parts.Owner(&m.Match); owned {
		s.locks[i].mu.Lock()
		defer s.locks[i].mu.Unlock()
		_, err := s.parts.Partition(i).Apply(m, now)
		return err
	}
	var firstErr error
	for i := 0; i < s.parts.N(); i++ {
		s.locks[i].mu.Lock()
		_, err := s.parts.Partition(i).Apply(m, now)
		s.locks[i].mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats returns (packet_ins, misses, forwarded, rules).
func (s *Switch) Stats() (packetIns, misses, forwarded uint64, rules int) {
	return s.packetIns.Load(), s.misses.Load(), s.forwarded.Load(), s.parts.RuleCount()
}

// Instrument attaches the switch's counters to reg under the given
// metric name prefix (e.g. "fg_rtswitch") and registers the flow table
// under prefix+"_table". The datapath counters are atomics, so a scrape
// never touches a lock the forwarding path holds.
func (s *Switch) Instrument(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.CounterFunc(prefix+"_packet_ins_total", "packet_in messages sent to the controller.", s.packetIns.Load)
	reg.CounterFunc(prefix+"_missed_total", "Table-miss packets.", s.misses.Load)
	reg.CounterFunc(prefix+"_forwarded_total", "Packets matched and forwarded by the datapath.", s.forwarded.Load)
	reg.GaugeFunc(prefix+"_buffer_used", "Occupied packet buffer slots.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.buffer))
	})
	s.parts.Register(reg, prefix+"_table")
}

// Rules returns the number of installed flow rules (a broadcast rule
// counts once per partition), from the mutation-point mirrors — safe
// from any goroutine.
func (s *Switch) Rules() int {
	return s.parts.RuleCount()
}

// Close disconnects from the controller and waits for the message loop.
func (s *Switch) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	s.wg.Wait()
}
