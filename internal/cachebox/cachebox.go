// Package cachebox runs the data plane cache as a standalone network
// service — the paper's prototype deployed it as a separate machine
// ("a server machine that implements data plane cache", §V.B, ~1,000
// lines of C++). The box ingests migrated table-miss frames from
// switch-side shims and replays them to the migration agent over the
// dpcproto sideband, honouring the agent's rate directives.
//
// Topology:
//
//	switch shim(s) --Replay--> [ Box: dpcache ] --Replay--> agent
//	                                  ^------Rate-------- agent
//	                                  -------Stats------> agent
package cachebox

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"floodguard/internal/dpcache"
	"floodguard/internal/dpcproto"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/spsc"
	"floodguard/internal/telemetry"
)

// ingestItem is one migrated frame staged between a shim session's
// reader goroutine and the runner-side drain ticker.
type ingestItem struct {
	dpid uint64
	pkt  netpkt.Packet
}

const (
	// ingestRingCap bounds frames in flight per shim session; a full
	// ring backpressures the session's TCP read loop.
	ingestRingCap = 4096
	// ingestDrainEvery is the engine-ticker period for moving staged
	// frames into the cache on the runner goroutine. Batching here
	// replaces a Do round-trip (closure alloc + two channel hops +
	// wakeup) per ingested frame.
	ingestDrainEvery = 500 * time.Microsecond
)

// Config parameterises a Box.
type Config struct {
	// AgentAddr is the migration agent's dpcproto listener.
	AgentAddr string
	// DialAgent overrides the default TCP dial of AgentAddr; tests
	// inject fault-wrapped or in-memory transports here.
	DialAgent dpcproto.DialFunc
	// AgentRedial tunes the self-healing agent channel. The zero value
	// picks DefaultBackoff and the unbuffered writer — the right trade
	// for the replay hop, where every record is accounted (requeued on
	// failure) and a coalescing buffer would widen the loss window.
	AgentRedial dpcproto.RedialOptions
	// IngestAddr is where switch shims deliver migrated frames
	// (host:port; port 0 picks an ephemeral one).
	IngestAddr string
	// Cache dimensions the internal queues and initial rate.
	Cache dpcache.Config
	// Hinter, when set, classifies ingested frames benign/suspect: the
	// cache splits its queues on the verdict and the replay records carry
	// the hint byte to the agent.
	Hinter dpcache.Hinter
	// StatsInterval is the health-report period to the agent.
	StatsInterval time.Duration
}

// Box is a running cache service.
type Box struct {
	cfg    Config
	eng    *netsim.Engine
	runner *netsim.RealTimeRunner
	cache  *dpcache.Cache

	mu        sync.Mutex
	agent     *dpcproto.Redial
	ingestLn  net.Listener
	closed    bool
	wg        sync.WaitGroup
	statsTick *time.Ticker
	statsDone chan struct{}

	// ingestMu guards the ring list; the rings themselves are SPSC
	// (one shim session pushes, the runner-side drain ticker pops).
	ingestMu    sync.Mutex
	ingestRings []*spsc.Ring[ingestItem]
	// ingestBatch and ingestScratch are drain scratch, touched only on
	// the runner goroutine.
	ingestBatch   [256]ingestItem
	ingestScratch []*spsc.Ring[ingestItem]

	// trace is written on the runner goroutine (Instrument marshals the
	// assignment) and read only by boxSink.CacheEmit, which also runs
	// there — no lock needed.
	trace *telemetry.Tracer
}

// Instrument attaches the box's cache queues, sideband channel, and a
// sampled replay-stage tracer to reg. sampleEvery traces one in N
// replays (<=0 traces every one).
func (b *Box) Instrument(reg *telemetry.Registry, sampleEvery int) {
	if reg == nil {
		return
	}
	b.cache.Register(reg, "fg_cachebox")
	b.agent.Register(reg, "fg_cachebox_agent")
	tr := telemetry.NewTracer(reg, sampleEvery)
	b.runner.Do(func() {
		b.trace = tr
		b.cache.SetTracer(tr)
	})
}

// Start dials the agent, begins ingesting, and arms the scheduler. It
// returns the bound ingest address.
func Start(cfg Config) (*Box, net.Addr, error) {
	if cfg.StatsInterval <= 0 {
		cfg.StatsInterval = time.Second
	}
	eng := netsim.NewEngine()
	b := &Box{
		cfg:    cfg,
		eng:    eng,
		runner: netsim.NewRealTimeRunner(eng),
	}
	b.cache = dpcache.New(eng, cfg.Cache, boxSink{b})
	if cfg.Hinter != nil {
		b.cache.SetHinter(cfg.Hinter)
	}

	dial := cfg.DialAgent
	if dial == nil {
		addr := cfg.AgentAddr
		dial = func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	// The agent channel self-heals: a dropped sideband triggers capped
	// exponential backoff redial in the background while writes fail
	// fast (the failed packet is requeued into the cache, see boxSink)
	// and the rate-directive reader blocks until the channel is back.
	b.agent = dpcproto.NewRedial(dial, cfg.AgentRedial)
	if err := b.agent.Connect(); err != nil {
		return nil, nil, fmt.Errorf("cachebox: dial agent: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.IngestAddr)
	if err != nil {
		_ = b.agent.Close()
		return nil, nil, fmt.Errorf("cachebox: listen ingest: %w", err)
	}
	b.ingestLn = ln

	b.runner.Start()
	b.runner.Do(func() {
		b.cache.Start()
		b.eng.NewTicker(ingestDrainEvery, b.drainIngest)
	})

	b.wg.Add(2)
	go b.agentLoop()
	go b.acceptLoop(ln)

	b.statsTick = time.NewTicker(cfg.StatsInterval)
	b.statsDone = make(chan struct{})
	b.wg.Add(1)
	go b.statsLoop()

	return b, ln.Addr(), nil
}

// boxSink forwards scheduled packets to the agent as Replay records,
// stamping the cache's attribution hint into the replay header (the
// hint-less path emits the legacy framing).
type boxSink struct{ b *Box }

func (s boxSink) CacheEmit(origin uint64, inPort uint16, pkt netpkt.Packet, queued time.Duration) {
	s.CacheEmitHint(origin, inPort, dpcache.HintNone, pkt, queued)
}

func (s boxSink) CacheEmitHint(origin uint64, inPort uint16, hint uint8, pkt netpkt.Packet, queued time.Duration) {
	// The Writer copies the frame into its batch buffer before returning,
	// so pooled scratch is safe here.
	traced := s.b.trace.Sample()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	fb := netpkt.GetFrame()
	fb.B = pkt.MarshalAppend(fb.B)
	err := s.b.agent.WriteReplayHint(origin, inPort, hint, fb.B)
	fb.Release()
	if traced {
		// Replay stage: scheduler dequeue to sideband write, wall clock.
		s.b.trace.Observe(telemetry.StageReplay, time.Since(t0))
	}
	if err != nil {
		// Sideband down mid-replay: the packet goes back to the front of
		// its queue (CacheEmit runs on the runner goroutine, so this is
		// in-discipline) and will be replayed once the channel heals.
		s.b.cache.Requeue(origin, inPort, pkt, queued)
	}
}

// agentLoop consumes the agent's rate directives; Redial.Read blocks
// across reconnects and only fails once the box closes the channel.
func (b *Box) agentLoop() {
	defer b.wg.Done()
	for {
		rec, err := b.agent.Read()
		if err != nil {
			return
		}
		if rate, ok := rec.(dpcproto.Rate); ok {
			b.runner.Do(func() { b.cache.SetRate(rate.PPS) })
		}
	}
}

// acceptLoop serves switch-side shims.
func (b *Box) acceptLoop(ln net.Listener) {
	defer b.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.ingestLoop(conn)
	}
}

// ingestLoop consumes migrated frames from one shim, staging them into
// a session-local SPSC ring the drain ticker empties on the runner
// goroutine — no per-frame Do round-trip.
func (b *Box) ingestLoop(conn net.Conn) {
	defer b.wg.Done()
	defer conn.Close()
	ring := spsc.New[ingestItem](ingestRingCap)
	b.ingestMu.Lock()
	b.ingestRings = append(b.ingestRings, ring)
	b.ingestMu.Unlock()
	defer ring.Close() // retired by the drain ticker once empty
	r := dpcproto.NewReader(conn, 0)
	for {
		rec, err := r.Read()
		if err != nil {
			// EOF / closed-connection is the shim hanging up; anything
			// else is a framing error. Either way this shim session is
			// over — the distinction matters only to a debugger.
			return
		}
		rp, ok := rec.(dpcproto.Replay)
		if !ok {
			continue
		}
		pkt, err := netpkt.Parse(rp.Frame)
		if err != nil {
			continue
		}
		for !ring.Push(ingestItem{dpid: rp.DPID, pkt: pkt}) {
			// Drain is behind; stall this session's TCP read so the
			// shim sees backpressure instead of silent loss.
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// drainIngest runs on the runner goroutine: it sweeps every session
// ring into the cache in batches and retires rings whose session has
// closed and fully drained. ingestMu is held only to snapshot and to
// compact the ring list — never across the drain itself, so a shim
// session dialing in mid-sweep (Register under the same lock) is not
// stalled behind cache ingest work. The sweep needs no lock: drainIngest
// is the rings' sole consumer, and it always runs on the runner.
func (b *Box) drainIngest() {
	b.ingestMu.Lock()
	rings := append(b.ingestScratch[:0], b.ingestRings...)
	b.ingestMu.Unlock()
	b.ingestScratch = rings

	retired := false
	for _, ring := range rings {
		for {
			n := ring.PopBatch(b.ingestBatch[:])
			for i := 0; i < n; i++ {
				b.cache.Ingest(b.ingestBatch[i].dpid, b.ingestBatch[i].pkt)
			}
			if n < len(b.ingestBatch) {
				break
			}
		}
		if ring.Closed() && ring.Len() == 0 {
			retired = true // session over, nothing left to pop
		}
	}
	if !retired {
		return
	}
	b.ingestMu.Lock()
	kept := b.ingestRings[:0]
	for _, ring := range b.ingestRings {
		if ring.Closed() && ring.Len() == 0 {
			continue
		}
		kept = append(kept, ring)
	}
	for i := len(kept); i < len(b.ingestRings); i++ {
		b.ingestRings[i] = nil
	}
	b.ingestRings = kept
	b.ingestMu.Unlock()
}

func (b *Box) statsLoop() {
	defer b.wg.Done()
	for {
		select {
		case <-b.statsDone:
			return
		case <-b.statsTick.C:
			var st dpcache.Stats
			b.runner.Do(func() { st = b.cache.Stats() })
			_ = b.agent.Write(dpcproto.Stats{
				Backlog:  uint32(st.Backlog),
				Enqueued: st.Enqueued,
				Emitted:  st.Emitted,
				Dropped:  st.Dropped,
			})
		}
	}
}

// Stats reads a cache health snapshot.
func (b *Box) Stats() dpcache.Stats {
	var st dpcache.Stats
	b.runner.Do(func() { st = b.cache.Stats() })
	return st
}

// AgentChannel exposes the self-healing sideband to the agent for
// diagnostics (Connected, Redials, Failures).
func (b *Box) AgentChannel() *dpcproto.Redial { return b.agent }

// Close shuts everything down and waits for the loops.
func (b *Box) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.statsTick.Stop()
	close(b.statsDone)
	if b.ingestLn != nil {
		_ = b.ingestLn.Close()
	}
	if b.agent != nil {
		_ = b.agent.Flush() // drain any coalesced replays before hangup
		_ = b.agent.Close() // also unblocks agentLoop's Read
	}
	b.mu.Unlock()
	b.wg.Wait()
	// Every ingest loop has exited and closed its ring; one last sweep
	// moves anything still staged into the cache before it stops.
	b.runner.Do(b.drainIngest)
	b.runner.Do(func() { b.cache.Stop() })
	b.runner.Stop()
}

// Shim is the switch-side forwarder: attach its Deliver method as the
// cache port's peer and migrated frames flow to the box over TCP,
// stamped with the switch's datapath id. The channel self-heals; frames
// offered while it is down are counted and dropped (the data plane
// cannot wait — that is the cache's job).
type Shim struct {
	dpid    uint64
	ch      *dpcproto.Redial
	dropped atomic.Uint64
}

// NewShim dials the box's ingest listener on behalf of one datapath.
func NewShim(boxAddr string, dpid uint64) (*Shim, error) {
	dial := func() (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", boxAddr, 5*time.Second)
	}
	// Buffered: migrated frames coalesce into batched writes during
	// attack bursts; the bounded loss window on disconnect is acceptable
	// for this best-effort hop and surfaces in Dropped.
	ch := dpcproto.NewRedial(dial, dpcproto.RedialOptions{
		BufferSize: 32 << 10,
		FlushDelay: dpcproto.DefaultFlushDelay,
	})
	if err := ch.Connect(); err != nil {
		return nil, fmt.Errorf("cachebox: shim dial: %w", err)
	}
	return &Shim{dpid: dpid, ch: ch}, nil
}

// Deliver forwards one migrated frame. Marshalling uses pooled scratch
// (the Writer copies the frame before returning) and records coalesce
// into batched writes during attack bursts. A write against a down
// channel fails fast and counts a drop; the background redial heals the
// channel.
func (s *Shim) Deliver(pkt netpkt.Packet) {
	fb := netpkt.GetFrame()
	fb.B = pkt.MarshalAppend(fb.B)
	err := s.ch.WriteReplay(s.dpid, 0, fb.B)
	fb.Release()
	if err != nil {
		s.dropped.Add(1)
	}
}

// Dropped returns how many frames were lost to a down channel.
func (s *Shim) Dropped() uint64 { return s.dropped.Load() }

// Instrument attaches the shim's drop counter and channel health to reg
// under the given metric name prefix (e.g. "fg_shim").
func (s *Shim) Instrument(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.CounterFunc(prefix+"_dropped_total", "Migrated frames lost to a down box channel.", s.dropped.Load)
	s.ch.Register(reg, prefix+"_channel")
}

// Channel exposes the shim's self-healing transport for diagnostics.
func (s *Shim) Channel() *dpcproto.Redial { return s.ch }

// Close tears the shim's connection down.
func (s *Shim) Close() {
	_ = s.ch.Flush()
	_ = s.ch.Close()
}

// AgentListener is the controller-side endpoint a Box dials: it receives
// replayed packets and can steer the box's rate. Install callbacks with
// SetHooks.
type AgentListener struct {
	ln net.Listener

	mu     sync.Mutex
	conn   net.Conn
	wg     sync.WaitGroup
	closed bool

	onReplay func(dpid uint64, inPort uint16, hint uint8, pkt netpkt.Packet)
	onStats  func(s dpcproto.Stats)
	onHealth func(connected bool)

	replays   telemetry.Counter
	statsRecs telemetry.Counter
	connected telemetry.Gauge
}

// Instrument attaches the endpoint's counters to reg under the given
// metric name prefix (e.g. "fg_agent").
func (a *AgentListener) Instrument(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(prefix+"_replays_total", "Replay records received from the box.", &a.replays)
	reg.RegisterCounter(prefix+"_stats_total", "Cache health reports received from the box.", &a.statsRecs)
	reg.RegisterGauge(prefix+"_connected", "1 while a box connection is live.", &a.connected)
}

// SetHooks installs the endpoint's callbacks (any may be nil); safe to
// call while a box is connected.
//
//   - onReplay sees every replayed packet (from the connection-serving
//     goroutine), with the box's attribution hint byte — dpcache.HintNone
//     for frames from a box that predates attribution;
//   - onStats sees every cache health report;
//   - onHealth observes box connectivity: true when a box connection is
//     established, false when the live one is lost (a connection the
//     accept loop already replaced does not fire false). Wire it —
//     marshalled onto the engine/runner goroutine — to
//     Guard.SetCacheReachable so the FSM degrades and heals with the
//     sideband.
func (a *AgentListener) SetHooks(
	onReplay func(dpid uint64, inPort uint16, hint uint8, pkt netpkt.Packet),
	onStats func(s dpcproto.Stats),
	onHealth func(connected bool),
) {
	a.mu.Lock()
	a.onReplay, a.onStats, a.onHealth = onReplay, onStats, onHealth
	a.mu.Unlock()
}

// hooks snapshots the callbacks under the lock.
func (a *AgentListener) hooks() (func(uint64, uint16, uint8, netpkt.Packet), func(dpcproto.Stats), func(bool)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.onReplay, a.onStats, a.onHealth
}

// ListenAgent binds the agent endpoint.
func ListenAgent(addr string) (*AgentListener, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("cachebox: listen agent: %w", err)
	}
	a := &AgentListener{ln: ln}
	a.wg.Add(1)
	go a.accept()
	return a, ln.Addr(), nil
}

func (a *AgentListener) accept() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.mu.Lock()
		if a.conn != nil {
			_ = a.conn.Close() // one box per agent endpoint
		}
		a.conn = conn
		a.mu.Unlock()
		a.connected.Set(1)
		if _, _, onHealth := a.hooks(); onHealth != nil {
			onHealth(true)
		}
		a.wg.Add(1)
		go a.serve(conn)
	}
}

func (a *AgentListener) serve(conn net.Conn) {
	defer a.wg.Done()
	defer func() {
		// Report loss only for the live connection: a session the accept
		// loop already replaced (box redialled) or a listener shutdown
		// must not masquerade as a sideband failure.
		a.mu.Lock()
		wasCurrent := a.conn == conn && !a.closed
		if a.conn == conn {
			a.conn = nil
		}
		onHealth := a.onHealth
		a.mu.Unlock()
		if wasCurrent {
			a.connected.Set(0)
			if onHealth != nil {
				onHealth(false)
			}
		}
	}()
	r := dpcproto.NewReader(conn, 0)
	for {
		rec, err := r.Read()
		if err != nil {
			return
		}
		onReplay, onStats, _ := a.hooks()
		switch r := rec.(type) {
		case dpcproto.Replay:
			a.replays.Inc()
			if onReplay != nil {
				pkt, err := netpkt.Parse(r.Frame)
				if err == nil {
					onReplay(r.DPID, r.InPort, r.Hint, pkt)
				}
			}
		case dpcproto.Stats:
			a.statsRecs.Inc()
			if onStats != nil {
				onStats(r)
			}
		}
	}
}

// SetRate sends a rate directive to the connected box.
func (a *AgentListener) SetRate(pps float64) error {
	a.mu.Lock()
	conn := a.conn
	a.mu.Unlock()
	if conn == nil {
		return errors.New("cachebox: no box connected")
	}
	return dpcproto.Write(conn, dpcproto.Rate{PPS: pps})
}

// Close shuts the endpoint down.
func (a *AgentListener) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	_ = a.ln.Close()
	if a.conn != nil {
		_ = a.conn.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}
