package tcpguard

import (
	"fmt"
	"sync/atomic"

	"floodguard/internal/netpkt"
)

// Verdict classifies a handshake outcome worth attributing to a source.
type Verdict uint8

const (
	// VerdictNone: no attribution signal (established data segment,
	// silent drop of a stray segment).
	VerdictNone Verdict = iota
	// VerdictSyn: a SYN was answered with a cookie SYN-ACK. Feeds the
	// per-source SYN tally that completions are measured against.
	VerdictSyn
	// VerdictCompletion: a returning ACK carried a valid cookie.
	VerdictCompletion
	// VerdictCookieFail: an ACK carried an invalid or expired cookie.
	VerdictCookieFail
	// VerdictMalformedFlags: impossible flag combination (null scan,
	// SYN+FIN, SYN+RST).
	VerdictMalformedFlags
	// VerdictMalformedOffset: an option block no valid TCP data offset
	// can describe (misaligned or beyond the 40-byte maximum).
	VerdictMalformedOffset
	// VerdictMalformedOptions: structurally broken option TLVs.
	VerdictMalformedOptions
)

var verdictNames = [...]string{
	"none", "syn", "completion", "cookie_fail",
	"malformed_flags", "malformed_offset", "malformed_options",
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "?"
}

// Action is what the caller must do with the packet after Process.
type Action uint8

const (
	// ActionPass: hand the packet on (established flow, or completing
	// ACK — the flow is now benign-eligible).
	ActionPass Action = iota
	// ActionAnswer: the guard answered the SYN with a cookie SYN-ACK;
	// the packet is consumed and must not reach the controller path.
	ActionAnswer
	// ActionDrop: invalid or malformed; the packet is consumed.
	ActionDrop
)

// Observer receives handshake verdicts. Implementations are invoked on
// the owning shard's goroutine, one shard at a time per observer slot —
// the same single-writer contract as attrib.ShardObserver.
type Observer interface {
	TCPVerdict(dpid uint64, inPort uint16, src netpkt.IPv4, v Verdict)
}

// Config parameterises the guard.
type Config struct {
	// Shards must equal the rtc shard count: the table is sharded by
	// the same port%N ownership so all state for a port stays on its
	// shard goroutine. 0 means 1.
	Shards int
	// PerShardCapacity bounds each shard's connection table (default
	// 4096 entries). The whole tier's memory is Shards×PerShardCapacity
	// entries, fixed at construction.
	PerShardCapacity int
	// Secret seeds the cookie keyed hash and the table hash.
	Secret uint64
	// SynAck, when set, receives the cookie SYN-ACK the guard mints for
	// each answered SYN. Called on shard goroutines; implementations
	// must be safe for concurrent calls from different shards. Nil
	// means the answer is counted but not materialised (the simulator
	// usually only needs the count).
	SynAck func(dpid uint64, inPort uint16, synack netpkt.Packet)
}

func (c *Config) normalize() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.PerShardCapacity <= 0 {
		c.PerShardCapacity = 4096
	}
}

// idleWindows evicts entries untouched for more than this many guard
// windows.
const idleWindows = 4

// Stats is a point-in-time aggregate across shards.
type Stats struct {
	SynAnswered uint64 // cookie SYN-ACKs minted
	Established uint64 // valid-cookie completions
	CookieFails uint64 // ACKs with invalid/expired cookies
	Malformed   uint64 // malformed flags/offset/options segments
	Dropped     uint64 // total consumed as invalid (cookie fails + malformed + strays)
	Untracked   uint64 // completions that found no free slot
	Evicted     uint64 // idle/closed entries swept at barriers
	Entries     int    // current live entries across shards
	Watermark   int    // high-watermark of Entries
	EntryBudget int    // Shards×PerShardCapacity, the fixed ceiling
	Window      uint32 // current cookie window
}

type guardShard struct {
	table connTable
	obs   Observer

	synAnswered atomic.Uint64
	established atomic.Uint64
	cookieFails atomic.Uint64
	malformed   atomic.Uint64
	dropped     atomic.Uint64
	untracked   atomic.Uint64
	evicted     atomic.Uint64
	occ         atomic.Int64
	watermark   atomic.Int64

	// Pad the []guardShard stride to whole 64-byte cache lines (192 B),
	// so neighbouring shards' counters never share one.
	_ [3]uint64
}

// Guard is the TCP tier. Construct with New, wire shard observers,
// then call Process from each shard's goroutine for table-missed TCP
// packets. The cookie window is advanced by the deployment's clock
// owner (the soak harness in virtual time, the engine's window roll
// otherwise).
type Guard struct {
	cfg    Config
	codec  Codec
	shards []guardShard
	window atomic.Uint32
}

// New builds a guard with fixed capacity. The returned guard starts in
// cookie window 1 so that window-0 arithmetic never underflows into
// the previous-window acceptance path.
func New(cfg Config) *Guard {
	cfg.normalize()
	g := &Guard{cfg: cfg, codec: NewCodec(cfg.Secret)}
	g.shards = make([]guardShard, cfg.Shards)
	for i := range g.shards {
		g.shards[i].table = newConnTable(cfg.PerShardCapacity, mix64(cfg.Secret+uint64(i)+1))
	}
	g.window.Store(1)
	return g
}

// Shards returns the shard count the table was built for.
func (g *Guard) Shards() int { return len(g.shards) }

// SetShardObserver installs the verdict observer for shard i. Must be
// called before traffic starts; the observer runs on shard i's
// goroutine.
func (g *Guard) SetShardObserver(i int, obs Observer) { g.shards[i].obs = obs }

// AdvanceWindow moves to the next cookie window and returns it.
func (g *Guard) AdvanceWindow() uint32 { return g.window.Add(1) }

// FlushShard runs shard i's idle sweep against the current window.
// Must be called on shard i's goroutine (rtc calls it on the flush
// barrier; single-goroutine deployments call it directly).
func (g *Guard) FlushShard(i int) {
	s := &g.shards[i]
	if ev := s.table.sweep(g.window.Load()); ev > 0 {
		s.evicted.Add(uint64(ev))
	}
	s.occ.Store(int64(s.table.n))
}

// Process runs one table-missed TCP packet through the tier on shard
// `shard`. It is allocation-free on every path (the SYN-ACK callback
// receives a stack-built value). The caller routes the packet by the
// returned Action; verdicts have already been delivered to the shard
// observer by the time Process returns.
func (g *Guard) Process(shard int, dpid uint64, inPort uint16, p *netpkt.Packet) Action {
	s := &g.shards[shard]
	w := g.window.Load()
	flags := p.TCPFlags

	// Structural validity first: malformed segments are attribution
	// evidence regardless of handshake state.
	const synFin = netpkt.TCPSyn | netpkt.TCPFin
	const synRst = netpkt.TCPSyn | netpkt.TCPRst
	if flags&(netpkt.TCPSyn|netpkt.TCPAck|netpkt.TCPFin|netpkt.TCPRst) == 0 ||
		flags&synFin == synFin || flags&synRst == synRst {
		return s.deliver(dpid, inPort, p.NwSrc, VerdictMalformedFlags, ActionDrop)
	}
	if n := len(p.TCPOptions); n > 0 {
		if n > netpkt.MaxTCPOptionsLen || n%4 != 0 {
			return s.deliver(dpid, inPort, p.NwSrc, VerdictMalformedOffset, ActionDrop)
		}
		if netpkt.ValidateTCPOptions(p.TCPOptions) != nil {
			return s.deliver(dpid, inPort, p.NwSrc, VerdictMalformedOptions, ActionDrop)
		}
	}

	switch {
	case flags&netpkt.TCPSyn != 0 && flags&netpkt.TCPAck == 0:
		// Client SYN: answer statelessly. The SYN claims no slot and
		// touches none, even one its 4-tuple already holds.
		cookie := g.codec.Encode(p.NwSrc, p.NwDst, p.TpSrc, p.TpDst, w)
		s.synAnswered.Add(1)
		if g.cfg.SynAck != nil {
			g.cfg.SynAck(dpid, inPort, netpkt.Packet{
				EthSrc: p.EthDst, EthDst: p.EthSrc,
				EthType: netpkt.EtherTypeIPv4,
				NwSrc:   p.NwDst, NwDst: p.NwSrc,
				NwProto: netpkt.ProtoTCP,
				TpSrc:   p.TpDst, TpDst: p.TpSrc,
				TCPFlags: netpkt.TCPSyn | netpkt.TCPAck,
				TCPSeq:   cookie, TCPAck: p.TCPSeq + 1,
			})
		}
		return s.deliver(dpid, inPort, p.NwSrc, VerdictSyn, ActionAnswer)

	case flags&netpkt.TCPAck != 0:
		c := s.table.lookup(p.NwSrc, p.NwDst, p.TpSrc, p.TpDst)
		if c != nil && c.state == StateEstablished {
			c.lastWin = w
			if flags&(netpkt.TCPFin|netpkt.TCPRst) != 0 {
				c.state = StateClosed
			}
			return ActionPass
		}
		// No slot, or a Closed one: the ACK must prove the cookie. The
		// client acks cookie+1, so the cookie is ack-1. A valid cookie
		// claims a slot, or re-establishes the Closed one.
		if g.codec.Validate(p.NwSrc, p.NwDst, p.TpSrc, p.TpDst, w, p.TCPAck-1) {
			if c == nil {
				if c = s.table.insert(p.NwSrc, p.NwDst, p.TpSrc, p.TpDst); c == nil {
					s.untracked.Add(1)
				} else {
					s.noteOcc()
				}
			}
			if c != nil {
				c.state = StateEstablished
				c.lastWin = w
			}
			s.established.Add(1)
			return s.deliver(dpid, inPort, p.NwSrc, VerdictCompletion, ActionPass)
		}
		if c != nil {
			// A stray ACK on a Closed slot: the tuple proved a cookie
			// once, so it is consumed without a cookie-failure verdict.
			s.dropped.Add(1)
			return ActionDrop
		}
		return s.deliver(dpid, inPort, p.NwSrc, VerdictCookieFail, ActionDrop)

	default:
		// FIN/RST without ACK for a flow we do not track: consume
		// silently — there is no connection to tear down.
		if c := s.table.lookup(p.NwSrc, p.NwDst, p.TpSrc, p.TpDst); c != nil && c.state == StateEstablished {
			c.state = StateClosed
			return ActionPass
		}
		s.dropped.Add(1)
		return ActionDrop
	}
}

// deliver emits the verdict (if any observer is wired) and folds
// drop-class verdicts into the shard counters.
func (s *guardShard) deliver(dpid uint64, inPort uint16, src netpkt.IPv4, v Verdict, a Action) Action {
	switch v {
	case VerdictCookieFail:
		s.cookieFails.Add(1)
		s.dropped.Add(1)
	case VerdictMalformedFlags, VerdictMalformedOffset, VerdictMalformedOptions:
		s.malformed.Add(1)
		s.dropped.Add(1)
	}
	if s.obs != nil {
		s.obs.TCPVerdict(dpid, inPort, src, v)
	}
	return a
}

func (s *guardShard) noteOcc() {
	n := int64(s.table.n)
	s.occ.Store(n)
	if n > s.watermark.Load() {
		s.watermark.Store(n)
	}
}

// ConnState reports the tracked state of a 4-tuple on shard i. Test
// and barrier-time introspection only: must not race the shard
// goroutine's Process calls.
func (g *Guard) ConnState(shard int, src, dst netpkt.IPv4, sport, dport uint16) State {
	if c := g.shards[shard].table.lookup(src, dst, sport, dport); c != nil {
		return c.state
	}
	return StateNone
}

// Stats aggregates all shard counters. Entry counts are exact at flush
// barriers and monotone-stale otherwise.
func (g *Guard) Stats() Stats {
	st := Stats{EntryBudget: len(g.shards) * g.cfg.PerShardCapacity, Window: g.window.Load()}
	for i := range g.shards {
		s := &g.shards[i]
		st.SynAnswered += s.synAnswered.Load()
		st.Established += s.established.Load()
		st.CookieFails += s.cookieFails.Load()
		st.Malformed += s.malformed.Load()
		st.Dropped += s.dropped.Load()
		st.Untracked += s.untracked.Load()
		st.Evicted += s.evicted.Load()
		st.Entries += int(s.occ.Load())
		st.Watermark += int(s.watermark.Load())
	}
	return st
}

// String renders the aggregate for logs.
func (st Stats) String() string {
	return fmt.Sprintf("tcpguard{synacks=%d est=%d cookie_fails=%d malformed=%d dropped=%d entries=%d/%d wm=%d}",
		st.SynAnswered, st.Established, st.CookieFails, st.Malformed, st.Dropped,
		st.Entries, st.EntryBudget, st.Watermark)
}
