package rtc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// TestApplyRoutesToOwningShard pins the in-band routing contract on a
// running engine: a concrete-in_port mod is applied by exactly the
// owning shard, a wildcard-in_port mod by every shard (one physical
// copy per partition), and Apply returns only after the table reflects
// the mutation.
func TestApplyRoutesToOwningShard(t *testing.T) {
	e := New(testEngineConfig(4))
	e.Start()
	defer e.Stop()

	g := netpkt.NewSpoofGen(7, netpkt.FloodUDP, 0)
	pkt := g.Next()
	for port := uint16(1); port <= 8; port++ {
		if err := e.Apply(exactMod(&pkt, port, 2)); err != nil {
			t.Fatalf("apply port %d: %v", port, err)
		}
	}
	if got := e.TableRules(); got != 8 {
		t.Fatalf("rules after 8 concrete mods = %d, want 8", got)
	}
	s := e.Snapshot()
	for i, st := range s.Shards {
		if st.Applied != 2 { // ports i and i+4 both own shard i
			t.Errorf("shard %d applied %d mods, want 2", i, st.Applied)
		}
		if st.ApplyErrs != 0 {
			t.Errorf("shard %d apply errors: %d", i, st.ApplyErrs)
		}
	}

	// Wildcarded in_port: one control event per shard, one copy per
	// partition, so the summed rule count grows by the shard count.
	wild := openflow.FlowMod{
		Match:    openflow.ExactFrom(&pkt, 1),
		Command:  openflow.FlowAdd,
		Priority: 50,
		Actions:  []openflow.Action{openflow.Output(3)},
	}
	wild.Match.Wildcards |= openflow.WildInPort
	if err := e.Apply(wild); err != nil {
		t.Fatalf("broadcast apply: %v", err)
	}
	if got := e.TableRules(); got != 8+4 {
		t.Fatalf("rules after broadcast = %d, want 12", got)
	}
	for i, st := range e.Snapshot().Shards {
		if st.Applied != 3 {
			t.Errorf("shard %d applied %d mods after broadcast, want 3", i, st.Applied)
		}
	}

}

// TestApplyErrorRoundTrip pins that a shard's application error (here
// ErrTableFull from a capacity-bounded partition) travels back through
// the synchronous ack to the Apply caller.
func TestApplyErrorRoundTrip(t *testing.T) {
	cfg := testEngineConfig(2)
	cfg.TableCapacity = 2 // one slot per partition
	e := New(cfg)
	e.Start()
	defer e.Stop()

	g := netpkt.NewSpoofGen(17, netpkt.FloodUDP, 0)
	first, second := g.Next(), g.Next()
	if err := e.Apply(exactMod(&first, 1, 2)); err != nil {
		t.Fatalf("first add: %v", err)
	}
	err := e.Apply(exactMod(&second, 1, 2)) // same shard, partition full
	if !errors.Is(err, flowtable.ErrTableFull) {
		t.Fatalf("overfull add = %v, want ErrTableFull", err)
	}
	if errs := e.Snapshot().Shards[1].ApplyErrs; errs != 1 {
		t.Fatalf("shard apply error counter = %d, want 1", errs)
	}
}

// TestApplyBackpressureOnFullRing pins the bounded-wait contract: when
// a shard's control ring stays full for the whole ApplyTimeout, Apply
// fails with ErrApplyBackpressure instead of blocking forever. The
// shard goroutine is deliberately not running (started is forced on)
// and the test holds the partition, like a busy shard, so nothing
// drains the ring.
func TestApplyBackpressureOnFullRing(t *testing.T) {
	cfg := testEngineConfig(1)
	cfg.CtrlRingCapacity = 4
	cfg.ApplyTimeout = 20 * time.Millisecond
	e := New(cfg)
	e.started.Store(true) // ring path without a consumer
	s := e.shards[0]
	s.partMu.Lock()

	g := netpkt.NewSpoofGen(9, netpkt.FloodUDP, 0)
	pkt := g.Next()
	for i := 0; i < cfg.CtrlRingCapacity; i++ {
		pushMod(t, s, exactMod(&pkt, uint16(i+1), 2))
	}
	deadline := time.Now().Add(cfg.ApplyTimeout)
	if err := s.pushCtrl(ctrlEvent{mod: exactMod(&pkt, 99, 2)}, deadline); !errors.Is(err, ErrApplyBackpressure) {
		t.Fatalf("enqueue on a full ring = %v, want ErrApplyBackpressure", err)
	}
	if err := e.Apply(exactMod(&pkt, 99, 2)); !errors.Is(err, ErrApplyBackpressure) {
		t.Fatalf("Apply on a full ring = %v, want ErrApplyBackpressure", err)
	}

	// Draining the ring (as the shard loop does at batch tops) applies
	// the parked events and unblocks the path.
	s.drainCtrl(time.Now())
	if got := e.TableRules(); got != cfg.CtrlRingCapacity {
		t.Fatalf("rules after drain = %d, want %d", got, cfg.CtrlRingCapacity)
	}
	pushMod(t, s, exactMod(&pkt, 99, 2))
	s.drainCtrl(time.Now())
	s.partMu.Unlock()
	e.started.Store(false)
}

// TestApplyTimeoutOnStalledShard pins the other bound: the event
// enqueues fine, but no shard acknowledges within ApplyTimeout. The
// test holds the partition, like a stalled shard, so the caller cannot
// drain the ring itself.
func TestApplyTimeoutOnStalledShard(t *testing.T) {
	cfg := testEngineConfig(1)
	cfg.ApplyTimeout = 20 * time.Millisecond
	e := New(cfg)
	e.started.Store(true) // enqueue succeeds, nobody acks
	e.shards[0].partMu.Lock()

	g := netpkt.NewSpoofGen(11, netpkt.FloodUDP, 0)
	pkt := g.Next()
	if err := e.Apply(exactMod(&pkt, 1, 2)); !errors.Is(err, ErrApplyTimeout) {
		t.Fatalf("Apply against a stalled shard = %v, want ErrApplyTimeout", err)
	}
	e.shards[0].drainCtrl(time.Now())
	e.shards[0].partMu.Unlock()
	e.started.Store(false)
}

// TestApplyOnWaitingShard pins the helping wait: on a started engine
// whose shard holds no partition — here it has no goroutine at all, the
// limit of a shard waiting for ingress — Apply applies its own mod
// while it waits, so it returns nil with the rule live instead of
// timing out.
func TestApplyOnWaitingShard(t *testing.T) {
	e := New(testEngineConfig(1))
	e.started.Store(true)
	defer e.started.Store(false)

	pkt := netpkt.NewSpoofGen(31, netpkt.FloodUDP, 0).Next()
	if err := e.Apply(exactMod(&pkt, 1, 2)); err != nil {
		t.Fatalf("Apply on a waiting shard = %v, want nil", err)
	}
	if got := e.TableRules(); got != 1 {
		t.Fatalf("rules after Apply = %d, want 1", got)
	}
	if got := e.Snapshot().Shards[0].Applied; got != 1 {
		t.Fatalf("Applied = %d, want 1", got)
	}
}

// TestApplyReleaseRechecksRing pins the release protocol: an event
// queued while the partition is held, whose Apply has stopped polling
// and parked, is drained by the holder's release before it returns.
// With release a plain Unlock the ack stays pending and that Apply
// would time out.
func TestApplyReleaseRechecksRing(t *testing.T) {
	e := New(testEngineConfig(1))
	e.started.Store(true)
	defer e.started.Store(false)
	s := e.shards[0]
	s.partMu.Lock()
	pkt := netpkt.NewSpoofGen(37, netpkt.FloodUDP, 0).Next()
	parked := newApplyAck(1)
	if err := s.pushCtrl(ctrlEvent{mod: exactMod(&pkt, 1, 2), ack: parked}, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	s.release()
	if n := parked.pending.Load(); n != 0 {
		t.Fatalf("release left the parked waiter's event pending (%d)", n)
	}
	if err := parked.result(); err != nil {
		t.Fatal(err)
	}
	if got := e.TableRules(); got != 1 {
		t.Fatalf("rules after release = %d, want 1", got)
	}
}

// TestApplyHeldOrder pins FIFO through a held partition: two Applies
// queued, in order, while the test holds the partition both return nil
// once it lets go, and their rules land in enqueue order — both share a
// priority, so the table orders them by insertion seq.
func TestApplyHeldOrder(t *testing.T) {
	e := New(testEngineConfig(1))
	e.started.Store(true)
	defer e.started.Store(false)
	s := e.shards[0]

	pkt := netpkt.NewSpoofGen(41, netpkt.FloodUDP, 0).Next()
	first := exactMod(&pkt, 1, 2)
	pkt.EthDst = netpkt.MACFromUint64(0x020000000001)
	second := exactMod(&pkt, 1, 2)
	s.partMu.Lock()
	errs := make(chan error, 2)
	for i, m := range []openflow.FlowMod{first, second} {
		go func() { errs <- e.Apply(m) }()
		for s.ctrl.Len() != i+1 {
			runtime.Gosched()
		}
	}
	s.release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued Apply = %v, want nil", err)
		}
	}
	got := s.part.Entries()
	if len(got) != 2 || got[0].Match != first.Match || got[1].Match != second.Match {
		t.Fatalf("rules in seq order = %v, want the first mod's then the second's", got)
	}
}

// TestApplyRoundTripSerial pins the in-band round trip the mitigation
// install makes: 10 000 serial Apply calls against a started one-shard
// wall-clock engine whose ingress ring stays idle, so between mods the
// shard spins in Wait and, at every pause, parks — with its partition
// let go, so each caller applies its own mod. Each call must return nil
// with its rule applied; none may come back before its ack.
func TestApplyRoundTripSerial(t *testing.T) {
	const mods = 10_000
	e := New(testEngineConfig(1))
	e.Start()
	defer e.Stop()

	s := e.Shard(0)
	pkt := netpkt.NewSpoofGen(29, netpkt.FloodUDP, 0).Next()
	for i := 0; i < mods; i++ {
		// A distinct dl_dst per mod, like the derived l2_learning rules,
		// so each rule gets its own classifier chain.
		pkt.EthDst = netpkt.MACFromUint64(0x020000000000 + uint64(i))
		if err := e.Apply(exactMod(&pkt, 1, 2)); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if got := s.applied.Load(); got != uint64(i+1) {
			t.Fatalf("Apply %d returned with %d mods applied, want %d", i, got, i+1)
		}
		if i%1000 == 999 {
			time.Sleep(time.Millisecond) // long enough for the shard to park
		}
	}
	if got := e.TableRules(); got != mods {
		t.Fatalf("TableRules = %d, want %d", got, mods)
	}
	st := e.Snapshot().Shards[0]
	if st.Applied != mods || st.ApplyErrs != 0 {
		t.Fatalf("shard applied %d mods with %d errors, want %d and 0", st.Applied, st.ApplyErrs, mods)
	}
}

// TestApplyChurnRace soaks the partitioned engine's full concurrency
// surface under the race detector: per-shard packet producers, a
// control-plane goroutine churning rules through Apply (including
// broadcasts), and a scraper reading Snapshot/TableRules/Counters —
// all at once. A live scrape may land between any two packets, so what
// it can hold the counters to is monotonicity; conservation is exact
// once Stop has returned.
func TestApplyChurnRace(t *testing.T) {
	e := New(testEngineConfig(4))
	e.Start()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var accepted atomic.Uint64

	for sh := 0; sh < e.Shards(); sh++ {
		port := uint16(sh)
		if port == 0 {
			port = uint16(e.Shards()) // port 0 unused; shard 0 owns port N
		}
		wg.Add(1)
		go func(shard int, port uint16) {
			defer wg.Done()
			g := netpkt.NewSpoofGen(int64(300+shard), netpkt.FloodMixed, 0)
			ring := e.Shard(shard).Ring()
			for !stop.Load() {
				if ring.Push(Item{Pkt: g.Next(), InPort: port}) {
					accepted.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}(sh, port)
	}

	wg.Add(1)
	go func() { // control plane: sustained delete/re-add churn
		defer wg.Done()
		g := netpkt.NewSpoofGen(23, netpkt.FloodUDP, 0)
		flows := make([]netpkt.Packet, 8)
		for i := range flows {
			flows[i] = g.Next()
		}
		for n := 0; !stop.Load(); n++ {
			pkt := flows[n%len(flows)]
			port := uint16(1 + n%e.Shards())
			mod := exactMod(&pkt, port, 2)
			if n%16 == 15 { // occasional broadcast
				mod.Match.Wildcards |= openflow.WildInPort
			}
			if n%2 == 1 {
				mod.Command = openflow.FlowDeleteStrict
				mod.OutPort = openflow.PortNone
			}
			if err := e.Apply(mod); err != nil {
				t.Errorf("churn apply %d: %v", n, err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // scraper: live reads against the serving path
		defer wg.Done()
		var last Snapshot
		for !stop.Load() {
			s := e.Snapshot()
			if s.Forwarded < last.Forwarded || s.Misses < last.Misses {
				t.Errorf("live counters ran backwards: fwd %d→%d miss %d→%d",
					last.Forwarded, s.Forwarded, last.Misses, s.Misses)
				return
			}
			last = s
			_ = e.TableRules()
			_, _, _, _ = e.Counters()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	e.Stop()

	// Processed is derived (forwarded + misses), so this is the
	// conservation check: every accepted frame was forwarded or missed.
	s := e.Snapshot()
	if s.Processed != accepted.Load() {
		t.Fatalf("conservation broken: fwd %d + miss %d = %d, accepted %d",
			s.Forwarded, s.Misses, s.Processed, accepted.Load())
	}
	var applied uint64
	for _, st := range s.Shards {
		applied += st.Applied
	}
	if applied == 0 {
		t.Fatal("no flow_mods applied — churn never ran")
	}
}

// TestApplyQuiescentInline pins the inline fast path: before Start and
// after Stop the caller owns the partitions, so the mod applies with no
// ring; in manual mode it owns them throughout, so a mod applied after
// Start is visible to the very next InjectItem, and Start launches no
// goroutine.
func TestApplyQuiescentInline(t *testing.T) {
	g := netpkt.NewSpoofGen(13, netpkt.FloodUDP, 0)
	pkt := g.Next()
	del := exactMod(&pkt, 1, 2)
	del.Command = openflow.FlowDeleteStrict
	del.OutPort = openflow.PortNone

	t.Run("wall-clock", func(t *testing.T) {
		e := New(testEngineConfig(2))
		if err := e.Apply(exactMod(&pkt, 1, 2)); err != nil {
			t.Fatalf("quiescent apply: %v", err)
		}
		if got := e.TableRules(); got != 1 {
			t.Fatalf("rules after quiescent apply = %d, want 1", got)
		}
		e.Start()
		e.Stop()
		if err := e.Apply(del); err != nil {
			t.Fatalf("post-Stop apply: %v", err)
		}
		if got := e.TableRules(); got != 0 {
			t.Fatalf("rules after post-Stop delete = %d, want 0", got)
		}
	})
	t.Run("manual", func(t *testing.T) {
		cfg := testEngineConfig(2)
		cfg.Manual = true
		e := New(cfg)
		before := runtime.NumGoroutine()
		e.Start()
		defer e.Stop()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("manual Start went from %d to %d goroutines, want none started", before, after)
		}
		if err := e.Apply(exactMod(&pkt, 1, 2)); err != nil {
			t.Fatalf("manual apply: %v", err)
		}
		e.InjectItem(Item{Pkt: pkt, InPort: 1})
		if _, fwd, _, _ := e.Counters(); fwd != 1 {
			t.Fatalf("packet after the add forwarded %d times, want 1", fwd)
		}
		if err := e.Apply(del); err != nil {
			t.Fatalf("manual delete: %v", err)
		}
		e.InjectItem(Item{Pkt: pkt, InPort: 1})
		if _, fwd, miss, _ := e.Counters(); fwd != 1 || miss != 1 {
			t.Fatalf("packet after the delete: forwarded %d, missed %d; want 1 and 1", fwd, miss)
		}
		if st := e.CacheStats(); st.Enqueued != 1 {
			t.Fatalf("the miss reached the cache %d times, want 1", st.Enqueued)
		}
	})
}
