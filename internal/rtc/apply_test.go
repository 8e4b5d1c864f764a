package rtc

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// TestApplyRoutesToOwningShard pins the routing contract on a running
// engine: a concrete-in_port mod is applied by exactly the
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

	// Wildcarded in_port: one copy per partition, so the summed rule
	// count grows by the shard count.
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

// TestPartitionBroadcastBookkeeping pins the routing key and the
// documented divergence from one global table, partition by partition:
// a rule pinned to in_port p lands in shard p%N's partition alone, a
// wildcard-in_port rule lands once in every partition, and TableRules
// counts each physical copy.
func TestPartitionBroadcastBookkeeping(t *testing.T) {
	cfg := testEngineConfig(4)
	cfg.Manual = true
	e := New(cfg)
	pkt := netpkt.NewSpoofGen(3, netpkt.FloodUDP, 0).Next()
	rules := func(want ...int) {
		t.Helper()
		for i, w := range want {
			if got := e.Shard(i).part.RuleCount(); got != w {
				t.Fatalf("partition %d rule count = %d, want %d", i, got, w)
			}
		}
	}

	wild := exactMod(&pkt, 1, 2)
	wild.Match.Wildcards |= openflow.WildInPort
	if err := e.Apply(wild); err != nil {
		t.Fatal(err)
	}
	rules(1, 1, 1, 1)
	if got := e.TableRules(); got != 4 {
		t.Fatalf("broadcast rule count = %d, want one copy per partition (4)", got)
	}

	if err := e.Apply(exactMod(&pkt, 6, 2)); err != nil {
		t.Fatal(err)
	}
	rules(1, 1, 2, 1) // 6 % 4 = 2
	if got := e.TableRules(); got != 5 {
		t.Fatalf("rule count = %d, want 5", got)
	}
}

// TestApplyErrorRoundTrip pins that a shard's application error (here
// ErrTableFull from a capacity-bounded partition) comes back to the
// Apply caller and is counted against the shard.
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

// TestApplyOnWaitingShard pins that a shard waiting for ingress never
// keeps a flow_mod waiting: with the ingress ring idle the shard never
// reaches another batch top, so Apply can only return because it found
// the partition free and applied the mod itself.
func TestApplyOnWaitingShard(t *testing.T) {
	e := New(testEngineConfig(1))
	e.Start()
	defer e.Stop()
	s := e.shards[0]
	within(t, "the shard to let go of its partition", func() bool {
		if !s.partMu.TryLock() {
			return false
		}
		s.partMu.Unlock()
		return true
	})

	pkt := netpkt.NewSpoofGen(31, netpkt.FloodUDP, 0).Next()
	if err := awaitApply(t, goApply(e, exactMod(&pkt, 1, 2))); err != nil {
		t.Fatalf("Apply on a waiting shard = %v, want nil", err)
	}
	if got := e.TableRules(); got != 1 {
		t.Fatalf("rules after Apply = %d, want 1", got)
	}
	if got := e.Snapshot().Shards[0].Applied; got != 1 {
		t.Fatalf("Applied = %d, want 1", got)
	}
}

// boundedWait is how long the handoff tests wait for a step that must
// happen, so a broken handoff fails them instead of hanging them.
const boundedWait = 5 * time.Second

// within polls cond until it holds, failing the test after boundedWait.
func within(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(boundedWait); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", boundedWait, what)
		}
	}
}

// goApply runs Apply on its own goroutine and returns its result channel.
func goApply(e *Engine, m openflow.FlowMod) <-chan error {
	res := make(chan error, 1)
	go func() { res <- e.Apply(m) }()
	return res
}

// awaitApply returns an Apply's result, failing the test after
// boundedWait.
func awaitApply(t *testing.T, res <-chan error) error {
	t.Helper()
	select {
	case err := <-res:
		return err
	case <-time.After(boundedWait):
		t.Fatalf("Apply still waiting after %v", boundedWait)
		return nil
	}
}

// batchTop runs the shard's batch-top step on a goroutine of its own,
// failing the test if it does not return within boundedWait.
func batchTop(t *testing.T, s *Shard) {
	t.Helper()
	done := make(chan struct{})
	go func() { s.handoff(); close(done) }()
	select {
	case <-done:
	case <-time.After(boundedWait):
		t.Fatalf("the batch-top handoff did not return within %v", boundedWait)
	}
}

// TestApplyHandoffAtBatchTop pins the handoff: the test holds partMu as
// a busy shard does, so an Apply waits and its rule is not live; the
// batch-top step hands the partition over and takes it back, and the
// rule is live exactly when it returns.
func TestApplyHandoffAtBatchTop(t *testing.T) {
	e := New(testEngineConfig(1))
	s := e.shards[0]
	s.partMu.Lock()
	pkt := netpkt.NewSpoofGen(41, netpkt.FloodUDP, 0).Next()
	res := goApply(e, exactMod(&pkt, 1, 2))
	within(t, "the Apply to count itself waiting", func() bool { return s.waiters.Load() == 1 })
	select {
	case err := <-res:
		t.Fatalf("Apply returned %v while the shard held its partition", err)
	default:
	}
	if got := e.TableRules(); got != 0 {
		t.Fatalf("rules before the batch top = %d, want 0", got)
	}

	batchTop(t, s)
	if got := e.TableRules(); got != 1 {
		t.Fatalf("rules after the batch top = %d, want 1", got)
	}
	if err := awaitApply(t, res); err != nil {
		t.Fatalf("handed-over Apply = %v, want nil", err)
	}
	if s.partMu.TryLock() {
		t.Fatal("the batch top did not take the partition back")
	}
	s.partMu.Unlock()
}

// TestShardStepHandsOffAtBatchTop pins that the loop the shard runs
// hands off before each batch, not only that handoff works: the test
// plays the shard goroutine, holding partMu with more than a batch of
// packets for a not yet installed rule queued, so no step can find the
// ring empty. With an Apply of that rule waiting, one step must return
// the Apply and forward the whole batch by the new rule: the rule was
// live at the batch top, not after the batch.
func TestShardStepHandsOffAtBatchTop(t *testing.T) {
	e := New(testEngineConfig(1))
	s := e.shards[0]
	s.nextFlush = time.Now().Add(time.Hour)
	s.partMu.Lock()
	pkt := netpkt.NewSpoofGen(47, netpkt.FloodUDP, 0).Next()
	for i := 0; i < shardBatch+16; i++ {
		if !e.InjectItem(Item{Pkt: pkt, InPort: 1}) {
			t.Fatalf("ingress refused packet %d", i)
		}
	}
	res := goApply(e, exactMod(&pkt, 1, 2))
	within(t, "the Apply to count itself waiting", func() bool { return s.waiters.Load() == 1 })

	done := make(chan int, 1)
	go func() { done <- s.step() }()
	select {
	case n := <-done:
		if n != shardBatch {
			t.Errorf("step carried %d packets, want %d", n, shardBatch)
		}
	case <-time.After(boundedWait):
		t.Fatalf("step did not return within %v", boundedWait)
	}
	if fwd, miss := s.pub.forwarded.Load(), s.pub.misses.Load(); fwd != shardBatch || miss != 0 {
		t.Errorf("the batch forwarded %d and missed %d, want all %d forwarded by the rule applied at its top", fwd, miss, shardBatch)
	}
	if n := s.applied.Load(); n != 1 {
		t.Errorf("the step applied %d flow_mods, want the waiting one", n)
	}
	s.partMu.Unlock()
	if err := awaitApply(t, res); err != nil {
		t.Fatalf("Apply = %v", err)
	}
}

// TestApplyHandoffBoundsBackToBack pins that the handoff serves only the
// callers waiting when it starts: a control plane applying back to back
// is waiting again at once, yet the batch top returns with the partition
// while that newer call still waits, so ingress cannot starve.
func TestApplyHandoffBoundsBackToBack(t *testing.T) {
	e := New(testEngineConfig(1))
	s := e.shards[0]
	pkt := netpkt.NewSpoofGen(43, netpkt.FloodUDP, 0).Next()
	add := exactMod(&pkt, 1, 2)
	del := add
	del.Command, del.OutPort = openflow.FlowDeleteStrict, openflow.PortNone

	s.partMu.Lock()
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		for i := 0; !stop.Load(); i++ {
			m := add
			if i&1 == 1 {
				m = del
			}
			if err := e.Apply(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for round := 0; round < 3; round++ {
		within(t, "the applier to wait", func() bool { return s.waiters.Load() == 1 })
		before := s.applied.Load()
		batchTop(t, s)
		within(t, "the applier's next call to wait", func() bool { return s.waiters.Load() == 1 })
		if s.applied.Load() == before {
			t.Fatalf("round %d: the batch top applied nothing", round)
		}
	}
	stop.Store(true)
	s.partMu.Unlock()
	if err := awaitApply(t, done); err != nil {
		t.Fatal(err)
	}
}

// TestApplyStopWhileWaiting pins that Stop leaves no Apply waiting: an
// Apply blocked behind a busy holder of the partition (the test, here)
// while the engine stops returns nil with its rule applied.
func TestApplyStopWhileWaiting(t *testing.T) {
	e := New(testEngineConfig(1))
	e.Start()
	s := e.shards[0]
	within(t, "the shard to let go of its partition", s.partMu.TryLock)
	pkt := netpkt.NewSpoofGen(47, netpkt.FloodUDP, 0).Next()
	res := goApply(e, exactMod(&pkt, 1, 2))
	within(t, "the Apply to count itself waiting", func() bool { return s.waiters.Load() == 1 })
	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	s.partMu.Unlock()
	if err := awaitApply(t, res); err != nil {
		t.Fatalf("Apply across Stop = %v, want nil", err)
	}
	select {
	case <-stopped:
	case <-time.After(boundedWait):
		t.Fatalf("Stop did not return within %v", boundedWait)
	}
	if got := e.TableRules(); got != 1 {
		t.Fatalf("rules after Stop = %d, want 1", got)
	}
}

// TestApplyRoundTripSerial pins the round trip the mitigation install
// makes: 10 000 serial Apply calls against a started one-shard
// wall-clock engine whose ingress ring stays idle, so between mods the
// shard spins in Wait and, at every pause, parks — with its partition
// let go, so each caller applies its own mod. Each call must return nil
// with its rule applied.
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

// TestApplyQuiescentInline pins Apply without a shard goroutine: before
// Start and after Stop every partition is free, so the caller applies at
// once; in manual mode they are free throughout, so a mod applied after
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

// lookupKey reduces a lookup outcome to the fields the shard-count
// invariance property compares: miss/hit, the winning rule's identity,
// and what it would do to the packet.
type lookupKey struct {
	hit      bool
	priority uint16
	match    openflow.Match
	actions  string
}

func keyOf(e *flowtable.Entry) lookupKey {
	if e == nil {
		return lookupKey{}
	}
	return lookupKey{
		hit:      true,
		priority: e.Priority,
		match:    e.Match.Normalized(),
		actions:  openflow.ActionsString(e.Actions),
	}
}

// TestApplyShardCountInvariance is the routing soundness property of
// Apply: for random interleaved sequences of flow_mods (adds and strict
// deletes, some pinning in_port, some wildcarding it for broadcast) and
// lookups, engines at 1, 2 and 4 shards, each looking a packet up in
// the partition of the shard owning its in_port, must return exactly the
// winner one plain flowtable.Table returns, at every step of the
// sequence. Rule order, priority ties, and the per-partition broadcast
// copies must all collapse to the same serving behavior.
func TestApplyShardCountInvariance(t *testing.T) {
	now := time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)
	const nPorts = 8

	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewSource(int64(9000 + trial)))
		gen := netpkt.NewSpoofGen(int64(trial), netpkt.FloodMixed, 16)

		oracle := flowtable.New(0)
		var engines []*Engine
		for _, n := range []int{1, 2, 4} {
			engines = append(engines, New(Config{Shards: n, Manual: true}))
		}
		lookup := func(e *Engine, pkt *netpkt.Packet, inPort uint16) lookupKey {
			part := e.shards[e.ShardFor(inPort)].part
			return keyOf(part.Lookup(pkt, inPort, now, pkt.WireLen()))
		}

		// A pool of sample packets so deletes and lookups revisit
		// installed matches instead of always missing.
		samples := make([]netpkt.Packet, 12)
		for i := range samples {
			samples[i] = gen.Next()
		}
		pick := func() netpkt.Packet {
			if r.Intn(4) == 0 {
				return gen.Next() // fresh, likely miss
			}
			return samples[r.Intn(len(samples))]
		}

		for step := 0; step < 300; step++ {
			if r.Intn(3) > 0 { // lookup twice as often as mutation
				pkt := pick()
				inPort := uint16(r.Intn(nPorts) + 1)
				want := keyOf(oracle.Lookup(&pkt, inPort, now, pkt.WireLen()))
				for _, e := range engines {
					if got := lookup(e, &pkt, inPort); got != want {
						t.Fatalf("trial %d step %d shards=%d: lookup = %+v, oracle = %+v",
							trial, step, e.Shards(), got, want)
					}
				}
				continue
			}

			pkt := pick()
			m := openflow.ExactFrom(&pkt, uint16(r.Intn(nPorts)+1))
			if r.Intn(3) == 0 {
				m.Wildcards |= openflow.WildInPort // broadcast path
			}
			for _, bit := range []uint32{openflow.WildTpSrc, openflow.WildTpDst, openflow.WildNwTOS} {
				if r.Intn(3) == 0 {
					m.Wildcards |= bit
				}
			}
			fm := openflow.FlowMod{
				Match:    m,
				Priority: uint16(r.Intn(4) * 10),
				Actions:  []openflow.Action{openflow.Output(uint16(r.Intn(4) + 2))},
			}
			switch r.Intn(6) {
			case 0:
				fm.Command = openflow.FlowDeleteStrict
				fm.OutPort = openflow.PortNone
			default:
				fm.Command = openflow.FlowAdd
			}
			if _, err := oracle.Apply(fm, now); err != nil {
				t.Fatalf("trial %d step %d: oracle apply: %v", trial, step, err)
			}
			for _, e := range engines {
				if err := e.Apply(fm); err != nil {
					t.Fatalf("trial %d step %d shards=%d: apply: %v", trial, step, e.Shards(), err)
				}
			}
		}

		// Exhaustive sweep at the end: every sample packet from every
		// port must resolve identically after the whole mutation history.
		for _, pkt := range samples {
			for inPort := uint16(1); inPort <= nPorts; inPort++ {
				want := keyOf(oracle.Lookup(&pkt, inPort, now, pkt.WireLen()))
				for _, e := range engines {
					if got := lookup(e, &pkt, inPort); got != want {
						t.Fatalf("trial %d final sweep shards=%d port=%d: %+v, oracle %+v",
							trial, e.Shards(), inPort, got, want)
					}
				}
			}
		}
	}
}
