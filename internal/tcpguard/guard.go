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

// Stats aggregates the shards' counters as of each shard's last
// FlushShard: every field is exact at flush barriers and monotone-stale
// between them (Shards×PerShardCapacity and Window are always current).
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

// shardCounts is one guard shard's accounting. The owning shard
// goroutine writes it in plain memory; FlushShard copies it into the
// shard's published atomics, the only copy Stats reads.
type shardCounts struct {
	synAnswered, established, cookieFails, malformed uint64
	dropped, untracked, evicted                      uint64
	watermark                                        int
}

type guardShard struct {
	table connTable
	obs   Observer

	n   shardCounts
	pub struct {
		synAnswered, established, cookieFails, malformed atomic.Uint64
		dropped, untracked, evicted                      atomic.Uint64
		occ, watermark                                   atomic.Int64
	}

	// Pad the []guardShard stride to whole 64-byte cache lines (256 B),
	// so neighbouring shards' fields never share one.
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

// SetShardObserver installs the verdict observer for shard i. Must be
// called before traffic starts; the observer runs on shard i's
// goroutine.
func (g *Guard) SetShardObserver(i int, obs Observer) { g.shards[i].obs = obs }

// AdvanceWindow moves to the next cookie window and returns it.
func (g *Guard) AdvanceWindow() uint32 { return g.window.Add(1) }

// FlushShard runs shard i's idle sweep against the current window and
// publishes the shard's counters for Stats. Must be called on shard i's
// goroutine (rtc calls it on the flush barrier; single-goroutine
// deployments call it directly).
func (g *Guard) FlushShard(i int) {
	s := &g.shards[i]
	s.n.evicted += uint64(s.table.sweep(g.window.Load()))
	p := &s.pub
	p.synAnswered.Store(s.n.synAnswered)
	p.established.Store(s.n.established)
	p.cookieFails.Store(s.n.cookieFails)
	p.malformed.Store(s.n.malformed)
	p.dropped.Store(s.n.dropped)
	p.untracked.Store(s.n.untracked)
	p.evicted.Store(s.n.evicted)
	p.occ.Store(int64(s.table.n))
	p.watermark.Store(int64(s.n.watermark))
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
		s.n.synAnswered++
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
					s.n.untracked++
				} else {
					s.n.watermark = max(s.n.watermark, s.table.n)
				}
			}
			if c != nil {
				c.state = StateEstablished
				c.lastWin = w
			}
			s.n.established++
			return s.deliver(dpid, inPort, p.NwSrc, VerdictCompletion, ActionPass)
		}
		if c != nil {
			// A stray ACK on a Closed slot: the tuple proved a cookie
			// once, so it is consumed without a cookie-failure verdict.
			s.n.dropped++
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
		s.n.dropped++
		return ActionDrop
	}
}

// deliver emits the verdict (if any observer is wired) and folds
// drop-class verdicts into the shard counters.
func (s *guardShard) deliver(dpid uint64, inPort uint16, src netpkt.IPv4, v Verdict, a Action) Action {
	switch v {
	case VerdictCookieFail:
		s.n.cookieFails++
		s.n.dropped++
	case VerdictMalformedFlags, VerdictMalformedOffset, VerdictMalformedOptions:
		s.n.malformed++
		s.n.dropped++
	}
	if s.obs != nil {
		s.obs.TCPVerdict(dpid, inPort, src, v)
	}
	return a
}

// Stats aggregates the counters every shard published at its last
// FlushShard. Safe from any goroutine.
func (g *Guard) Stats() Stats {
	st := Stats{EntryBudget: len(g.shards) * g.cfg.PerShardCapacity, Window: g.window.Load()}
	for i := range g.shards {
		p := &g.shards[i].pub
		st.SynAnswered += p.synAnswered.Load()
		st.Established += p.established.Load()
		st.CookieFails += p.cookieFails.Load()
		st.Malformed += p.malformed.Load()
		st.Dropped += p.dropped.Load()
		st.Untracked += p.untracked.Load()
		st.Evicted += p.evicted.Load()
		st.Entries += int(p.occ.Load())
		st.Watermark += int(p.watermark.Load())
	}
	return st
}

// String renders the aggregate for logs.
func (st Stats) String() string {
	return fmt.Sprintf("tcpguard{synacks=%d est=%d cookie_fails=%d malformed=%d dropped=%d entries=%d/%d wm=%d}",
		st.SynAnswered, st.Established, st.CookieFails, st.Malformed, st.Dropped,
		st.Entries, st.EntryBudget, st.Watermark)
}
