package soak

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"floodguard/internal/attrib"
	"floodguard/internal/dpcache"
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/rtc"
	"floodguard/internal/tcpguard"
	"floodguard/internal/telemetry"
)

// WindowStats is one window's accounting row — the per-window CSV
// record and the invariant checker's input. Counter fields are
// cumulative since run start; Inj* fields are this window's offered
// counts.
type WindowStats struct {
	Window    int
	SimMillis int64
	FSM       string

	InjBenign uint64
	InjAttack uint64
	InjTCP    uint64 // this window's benign TCP handshake packets (SYNs + closed-loop ACKs)

	CumInjBenign     uint64
	CumInjAttack     uint64
	CumInjTCP        uint64
	CumBenignHotInj  uint64 // benign injections covered by an installed rule
	CumBenignMissInj uint64 // benign injections bound for the cache tier

	Processed uint64
	Forwarded uint64
	Misses    uint64
	RingDrops uint64

	Enqueued       uint64
	Emitted        uint64
	DroppedBenign  uint64
	DroppedSuspect uint64
	Backlog        int
	SuspectBacklog int
	MaxBacklog     int

	Replayed       uint64
	BenignReplayed uint64
	AttackReplayed uint64
	TCPReplayed    uint64 // replays from the 172.16/12 TCP client plan
	SynAckReplayed uint64 // SYN|ACK-flagged replays (must stay 0 with the tier on)

	// SYN-proxy tier accounting (zero when tcpguard=off): cumulative
	// guard-consumed packets, completed handshakes, and the bounded
	// connection table's occupancy against its fixed budget.
	SynAcked      uint64
	GuardDropped  uint64
	Established   uint64
	ConnEntries   int
	ConnWatermark int
	ConnBudget    int
	TCPOffenders  int

	BenignLoss float64 // cumulative ground-truth benign loss fraction
	BenignLost uint64  // cumulative ground-truth benign packets lost

	BlamedPorts    int
	TrackedPorts   int
	TrackedSources int
	SampleTotal    uint64
	TableRules     int

	ReplayWaitP99Millis float64
	Violations          int
	// SLO is the worst objective state of the window's SLO evaluation
	// ("ok", "warn" or "page").
	SLO string
}

// Result is one soak run's outcome.
type Result struct {
	Config     Config
	Windows    []WindowStats
	Violations []Violation

	DistinctFlows int
	BenignLoss    float64 // final cumulative loss fraction
	MaxMemFrac    float64 // worst occupancy/budget ratio seen
	Detected      bool    // every above-floor attacker blamed at least once
	Elapsed       time.Duration

	// JournalDump is the flight-recorder JSONL artifact (Config.Journal
	// runs only): meta line, retained decision events in canonical
	// order, every invariant violation, and a final metrics snapshot.
	// Deterministic: same seed, same bytes.
	JournalDump []byte
}

// pipeline is the manual-mode surface of rtc.Engine the harness drives.
// It is an interface only so the differential tier can substitute its
// sequential reference model (reference_test.go); every method is one
// the engine already has. A Flush item injected on port i reaches shard
// i, and Flushes(i) counts the barriers that shard has completed. The
// harness goroutine is the cache stage: DrainCache and Advance run it,
// and Cache() is the harness's to touch between them.
type pipeline interface {
	Apply(m openflow.FlowMod) error
	Start()
	Stop()
	InjectItem(it rtc.Item) bool
	Shards() int
	Flushes(i int) uint64
	DrainCache()
	Advance(d time.Duration)
	Counters() (processed, forwarded, misses, ringDrops uint64)
	GuardCounters() (synAcked, guardDropped uint64)
	TCPGuard() *tcpguard.Guard
	TableRules() int
	CacheStats() dpcache.Stats
	Attributor() *attrib.Attributor
	Cache() *dpcache.Cache
	ReplayedTotal() uint64
}

// replayTally is the ground-truth view of the controller-path replay
// stream, fed by the rtc ReplayObserver inside Advance and read at the
// window barrier right after it — both on the harness goroutine, so it
// needs no synchronization.
type replayTally struct {
	benign  uint64
	attack  uint64
	tcp     uint64 // TCP client-plan sources (172.16/12)
	synacks uint64 // SYN|ACK-flagged replays — cookie leakage detector
	// winWait is the window-local histogram of virtual replay-queue
	// residence, log2-millisecond buckets; the harness reads the p99 and
	// resets it every barrier.
	winWait  [32]uint64
	winTotal uint64
}

func (t *replayTally) observe(_ uint64, _ uint16, pkt netpkt.Packet, queued time.Duration) {
	switch {
	case isBenignSrc(pkt.NwSrc):
		t.benign++
	case isTCPClientSrc(pkt.NwSrc):
		t.tcp++
	default:
		t.attack++
	}
	if pkt.TCPFlags&(netpkt.TCPSyn|netpkt.TCPAck) == netpkt.TCPSyn|netpkt.TCPAck {
		t.synacks++
	}
	ms := queued.Milliseconds()
	b := bits.Len64(uint64(ms)) // 0ms -> 0, 1ms -> 1, 2-3ms -> 2, ...
	if b >= len(t.winWait) {
		b = len(t.winWait) - 1
	}
	t.winWait[b]++
	t.winTotal++
}

// p99Reset returns the window's p99 replay wait (upper bucket bound,
// milliseconds) and clears the window-local histogram.
func (t *replayTally) p99Reset() float64 {
	total := t.winTotal
	t.winTotal = 0
	if total == 0 {
		for i := range t.winWait {
			t.winWait[i] = 0
		}
		return 0
	}
	rank := total - total/100 // ceil-ish 99th percentile rank
	var seen uint64
	out := 0
	for i, n := range t.winWait {
		seen += n
		t.winWait[i] = 0
		if out == 0 && seen >= rank {
			out = i
		}
	}
	if out == 0 {
		return 0
	}
	return float64(uint64(1) << (out - 1)) // bucket lower bound in ms
}

// soakConnCapacity is the SYN-proxy tier's fixed per-shard connection
// budget — the memory invariant asserts occupancy and watermark against
// shards x this value every window.
const soakConnCapacity = 1024

// synackBox collects the guard's cookie SYN-ACKs to the benign client
// plan. The callback runs on shard goroutines (hence the mutex); the
// harness drains it at window barriers, after shard quiescence, so every
// client SYN offered this window has its answer in the box. Records are
// sorted before use — collection order across shards is
// scheduling-dependent, the completed set is not.
type synackBox struct {
	mu   sync.Mutex
	got  []synackRec // client SYN-ACKs since the last take
	acks []synackRec // the last take's ACKs; reused by the next one
}

type synackRec struct {
	inPort uint16
	pkt    netpkt.Packet
}

// collect keeps only SYN-ACKs addressed to the client plan. Every
// attacker SYN is answered too — the guard mints the cookie either way —
// but attackers never complete, so their answers are dropped here,
// before the lock, instead of being buffered for a window.
func (b *synackBox) collect(_ uint64, inPort uint16, sa netpkt.Packet) {
	if !isTCPClientSrc(sa.NwDst) { // SYN-ACK's destination is the client
		return
	}
	b.mu.Lock()
	b.got = append(b.got, synackRec{inPort: inPort, pkt: sa})
	b.mu.Unlock()
}

// takeClientAcks drains the box and returns the closed-loop completing
// ACKs for the benign TCP client plan, in deterministic order. The
// returned slice is valid until the next call.
func (b *synackBox) takeClientAcks() []synackRec {
	b.mu.Lock()
	out := b.acks[:0]
	for _, r := range b.got {
		sa := r.pkt
		out = append(out, synackRec{inPort: r.inPort, pkt: netpkt.Packet{
			EthSrc:   sa.EthDst,
			EthDst:   sa.EthSrc,
			EthType:  netpkt.EtherTypeIPv4,
			NwSrc:    sa.NwDst,
			NwDst:    sa.NwSrc,
			NwProto:  netpkt.ProtoTCP,
			TpSrc:    sa.TpDst,
			TpDst:    sa.TpSrc,
			TCPFlags: netpkt.TCPAck,
			TCPSeq:   sa.TCPAck,
			TCPAck:   sa.TCPSeq + 1,
		}})
	}
	b.got = b.got[:0]
	b.mu.Unlock()
	// Every client connection is a distinct (source, source port), so
	// the keys are unique and any sort yields the same order.
	slices.SortFunc(out, func(a, b synackRec) int {
		return cmp.Or(
			cmp.Compare(a.inPort, b.inPort),
			cmp.Compare(a.pkt.NwSrc, b.pkt.NwSrc),
			cmp.Compare(a.pkt.TpSrc, b.pkt.TpSrc),
			cmp.Compare(a.pkt.TCPAck, b.pkt.TCPAck),
		)
	})
	b.acks = out
	return out
}

// attribConfigFor derives attribution thresholds from the traffic
// scale: with per-port benign rate b, the floor sits at 3b (benign
// stays under it, adaptive attackers peak at 6b), drift at b/2 absorbs
// benign jitter, and the CUSUM threshold at 5b is crossed by one window
// of full-rate attack. Paper-scale absolute defaults would blame every
// port at soak rates, since baselines start at zero.
func attribConfigFor(cfg *Config) attrib.Config {
	b := cfg.BenignPPS / float64(cfg.Ports)
	a := attrib.Config{
		CUSUMThreshold: 5 * b,
		CUSUMDrift:     0.5 * b,
		SuspectRatePPS: 3 * b,
		HealWindows:    3,
		Seed:           uint64(cfg.Seed),
	}
	if cfg.HeavyHitterFrac > 0 {
		a.HeavyHitterFrac = cfg.HeavyHitterFrac
	}
	return a
}

// Run executes one soak: build the pipeline in manual (virtual-time)
// mode, install the hot-flow rules, then march window by window —
// inject the benign+attack schedule with backpressure, quiesce,
// flush the shard attribution deltas in shard order, advance simulated
// time, roll the detection window, and hand the barrier snapshot to the
// invariant checker. Any violation is recorded, never fatal: the full
// run's evidence comes back in the Result.
func Run(cfg Config) (*Result, error) {
	return run(cfg, func(rcfg rtc.Config) pipeline { return rtc.New(rcfg) })
}

func run(cfg Config, build func(rtc.Config) pipeline) (*Result, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	started := time.Now()

	tally := &replayTally{}
	var jnl *journal.Journal
	if cfg.Journal {
		jnl = journal.ForEngine(cfg.Shards)
	}
	box := &synackBox{}
	rcfg := rtc.Config{
		Shards:            cfg.Shards,
		RingCapacity:      4096,
		CacheRingCapacity: 16384,
		QueueCapacity:     cfg.QueueCapacity,
		ReplayPPS:         cfg.ReplayPPS,
		Window:            cfg.Window,
		Attrib:            attribConfigFor(&cfg),
		Manual:            true,
		ReplayObserver:    tally.observe,
		Journal:           jnl,
	}
	if cfg.TCPGuardOn {
		rcfg.TCPGuard = &tcpguard.Config{
			Secret:           uint64(cfg.Seed) ^ 0x7cfb_51a9,
			PerShardCapacity: soakConnCapacity,
			IdleWindows:      4,
			SynAck:           box.collect,
		}
	}
	pipe := build(rcfg)

	gen := newBenignGen(&cfg)
	tgen := &tcpConnGen{cfg: &cfg}
	atks := buildAttackers(&cfg)
	plan := chaosPlan(&cfg)
	acfg := attribConfigFor(&cfg)
	chk := newChecker(&cfg, atks, plan, acfg.SuspectRatePPS, acfg.HealWindows, 64)

	// Install the zipf-head rules: the benign hot path forwards in the
	// data plane; only the cold tail and the attack reach the cache tier.
	for f := 0; f < cfg.HotFlows; f++ {
		if err := pipe.Apply(hotFlowMod(gen, f)); err != nil {
			return nil, fmt.Errorf("soak: install hot flow %d: %w", f, err)
		}
	}

	pipe.Start()
	res := &Result{Config: cfg}
	windows := cfg.Windows()
	winSecs := cfg.Window.Seconds()
	benignAcc := 0.0
	var cumInjBenign, cumInjAttack, cumInjTCP uint64
	// guardConsumed is the guard's miss-path take (zero with the tier
	// off) — part of every handoff-quiescence equation.
	guardConsumed := func() uint64 {
		syn, drop := pipe.GuardCounters()
		return syn + drop
	}
	attackerBlamed := make([]bool, len(atks))
	attackerInj := make([]int, len(atks))
	var slots []uint8
	var benignBlamed []uint16
	outage := false

	// Control-plane journal recorder (all methods nil-safe when the
	// journal is off): chaos faults, migration decisions, violations and
	// SLO flips recorded by this harness goroutine.
	jctl := jnl.ControlRec()
	migrated := make(map[uint16]bool)

	// SLO health engine: three declarative objectives evaluated every
	// window with multi-window burn rates (see telemetry.Objective).
	health := telemetry.NewHealth()
	sloObjs := []*telemetry.ObjectiveState{
		// Share of this run's cold benign packets lost per window; the
		// budget reuses the invariant ceiling so "SLO pages" and
		// "invariant trips" describe the same contract at two horizons.
		health.Add(telemetry.Objective{Name: "benign-loss", Target: cfg.BenignLossCeiling}),
		// Fraction of above-floor attackers past their detection
		// deadline: any overdue attacker burns 50x, so detection-latency
		// misses page within a few windows.
		health.Add(telemetry.Objective{Name: "detect", Target: 0.02, ShortWindows: 4, LongWindows: 16}),
		// Replay-queue p99 residency beyond one full window counts the
		// window bad; budget is a quarter of windows (chaos outages may
		// burn it transiently without paging).
		health.Add(telemetry.Objective{Name: "replay-p99", Target: 0.25}),
	}
	if cfg.Registry != nil {
		health.Register(cfg.Registry, "fg_soak")
	}
	sloPrev := make([]telemetry.SLOState, len(sloObjs))
	var prevLost, prevMissInj uint64

	fail := func(err error) (*Result, error) {
		pipe.Stop()
		return nil, err
	}
	// inject offers one item, draining the handoff rings while a full
	// ingress ring refuses it: the wait is the cache stage's time to
	// ingest, and a shard whose ring to the cache is full drops the miss.
	inject := func(it rtc.Item) {
		for !pipe.InjectItem(it) {
			pipe.DrainCache()
			runtime.Gosched()
		}
	}

	for w := 0; w < windows; w++ {
		jnl.SetWindow(w)

		// Chaos, applied at the barrier while the pipeline is quiescent:
		// rule churn and replay outages for the coming window.
		if plan[w].Churn && cfg.HotFlows > 0 {
			f := w % cfg.HotFlows
			del := hotFlowMod(gen, f)
			del.Command = openflow.FlowDeleteStrict
			del.OutPort = openflow.PortNone // no out_port filter: really delete
			if err := pipe.Apply(del); err != nil {
				return fail(fmt.Errorf("soak: churn delete flow %d: %w", f, err))
			}
			if err := pipe.Apply(hotFlowMod(gen, f)); err != nil {
				return fail(fmt.Errorf("soak: churn re-add flow %d: %w", f, err))
			}
			jctl.Record(journal.KindChaos, 3, 0, 1, uint16(f), 1, 0, 0)
		}

		// Scenario-driven rule churn, distinct from the chaos single-flow
		// bump above: FlowModsPerWindow hot flows are strict-deleted and
		// re-installed at every barrier, round-robin over the zipf head.
		// This drives the shard-owned apply path (in-band control events)
		// at a sustained rate while the invariant catalog keeps asserting.
		for i := 0; i < cfg.FlowModsPerWindow; i++ {
			f := (w*cfg.FlowModsPerWindow + i) % cfg.HotFlows
			del := hotFlowMod(gen, f)
			del.Command = openflow.FlowDeleteStrict
			del.OutPort = openflow.PortNone // no out_port filter: really delete
			if err := pipe.Apply(del); err != nil {
				return fail(fmt.Errorf("soak: flowmod churn delete flow %d: %w", f, err))
			}
			if err := pipe.Apply(hotFlowMod(gen, f)); err != nil {
				return fail(fmt.Errorf("soak: flowmod churn re-add flow %d: %w", f, err))
			}
		}
		if plan[w].Outage != outage {
			outage = plan[w].Outage
			rate := cfg.ReplayPPS
			if outage {
				rate = 0
			}
			pipe.Cache().SetRate(rate)
			code := uint8(2)
			if outage {
				code = 1
			}
			jctl.Record(journal.KindChaos, code, 0, 1, 0, 0, 0, 0)
		}

		// Offered load for this window: whole benign packets via a
		// carried fractional accumulator, per-attacker counts from each
		// profile's adaptive rate (pulse consults its blame state).
		benignAcc += cfg.BenignPPS * winSecs
		benignN := int(benignAcc)
		benignAcc -= float64(benignN)
		total := benignN
		for i, a := range atks {
			attackerInj[i] = a.packetsFor(w, attackerBlamed[i], winSecs)
			total += attackerInj[i]
		}

		// Deterministic proportional interleave: attacker packets are
		// spread across the window's slots by stride placement (linear
		// probing on collision), benign fills the rest.
		if cap(slots) < total {
			slots = make([]uint8, total)
		}
		slots = slots[:total]
		for i := range slots {
			slots[i] = 0
		}
		for j, n := range attackerInj {
			for i := 0; i < n; i++ {
				pos := i * total / n
				for slots[pos] != 0 {
					pos++
					if pos == total {
						pos = 0
					}
				}
				slots[pos] = uint8(j + 1)
			}
		}

		// Inject with backpressure: a full ingress ring retries (never
		// drops the offer), and the harness — the shard→cache rings' only
		// consumer — drains them every 512 packets and while it waits, so
		// they cannot overflow: the determinism contract needs exactly
		// zero ring drops.
		for i, s := range slots {
			var it rtc.Item
			if s == 0 {
				it.Pkt, it.InPort = gen.next()
			} else {
				a := atks[s-1]
				it.Pkt, it.InPort = a.packet(w), a.port
			}
			inject(it)
			if i%512 == 511 {
				pipe.DrainCache()
			}
		}
		cumInjBenign += uint64(benignN)
		for _, n := range attackerInj {
			cumInjAttack += uint64(n)
		}

		// Benign TCP connection attempts: this window's SYNs. Their
		// cookie SYN-ACKs land in the box by shard quiescence; the
		// closed-loop ACKs go in after it.
		var winTCP uint64
		for i := 0; i < cfg.TCPConns; i++ {
			pkt, port := tgen.syn()
			inject(rtc.Item{Pkt: pkt, InPort: port})
			winTCP++
		}
		cumInjTCP += winTCP

		// Quiesce: every offered packet processed, every miss ingested by
		// the cache or consumed by the guard. The drain sits inside the
		// condition: a shard counts a miss before it pushes it, so one
		// drain taken right after "processed == injected" can miss the
		// last packet.
		quiesce := func() error {
			injected := cumInjBenign + cumInjAttack + cumInjTCP
			if err := waitFor(func() bool {
				p, _, _, _ := pipe.Counters()
				return p == injected
			}, "shard quiescence"); err != nil {
				return err
			}
			return waitFor(func() bool {
				pipe.DrainCache()
				_, _, m, rd := pipe.Counters()
				return pipe.CacheStats().Enqueued+rd+guardConsumed() == m
			}, "cache ingest quiescence")
		}
		if err := quiesce(); err != nil {
			return fail(err)
		}

		// Closed-loop handshake completion: answer every client cookie
		// SYN-ACK with its valid ACK, then re-quiesce so the established
		// flows are in the cache before the barrier snapshot.
		if acks := box.takeClientAcks(); len(acks) > 0 {
			for _, a := range acks {
				inject(rtc.Item{Pkt: a.pkt, InPort: a.inPort})
			}
			winTCP += uint64(len(acks))
			cumInjTCP += uint64(len(acks))
			if err := quiesce(); err != nil {
				return fail(err)
			}
		}

		// Merge the shard attribution deltas, in shard order so the
		// sketch merge sequence is identical run to run.
		for i := 0; i < pipe.Shards(); i++ {
			want := pipe.Flushes(i) + 1
			inject(rtc.Item{Flush: true, InPort: uint16(i)})
			i := i
			if err := waitFor(func() bool { return pipe.Flushes(i) >= want }, "shard flush"); err != nil {
				return fail(err)
			}
		}

		// Advance simulated time one window: the replay ticker drains the
		// cache queues at the configured rate, entirely in virtual time.
		pipe.Advance(time.Duration(w+1) * cfg.Window)

		// Close the detection window and collect the barrier snapshot.
		// The guard's cookie window advances in lockstep with the
		// detection window: a cookie minted in window N validates through
		// N+1 and is rejected from N+2.
		if g := pipe.TCPGuard(); g != nil {
			g.AdvanceWindow()
		}
		verdicts := pipe.Attributor().Roll(cfg.Window)
		blamedPorts := 0
		benignBlamed = benignBlamed[:0]
		for i := range attackerBlamed {
			attackerBlamed[i] = false
		}
		for _, v := range verdicts {
			// Selective-migration analog of the controller path: the
			// first blame diverts the port's cold traffic to the suspect
			// queue (migrate); heal restores it (unmigrate). Verdict
			// order is deterministic, so so is the event stream.
			if v.Suspect && !migrated[v.Port] {
				migrated[v.Port] = true
				jctl.Record(journal.KindMigrate, 0, 0, 1, v.Port, 0, 0, 0)
			} else if v.Healed && migrated[v.Port] {
				delete(migrated, v.Port)
				jctl.Record(journal.KindUnmigrate, 0, 0, 1, v.Port, 0, 0, 0)
			}
			if !v.Suspect {
				continue
			}
			blamedPorts++
			if int(v.Port) <= cfg.Ports {
				benignBlamed = append(benignBlamed, v.Port)
			}
			for i, a := range atks {
				if a.port == v.Port {
					attackerBlamed[i] = true
				}
			}
		}

		ws := collectWindow(w, &cfg, pipe, gen, tally)
		ws.InjBenign = uint64(benignN)
		ws.InjTCP = winTCP
		ws.CumInjBenign = cumInjBenign
		ws.CumInjAttack = cumInjAttack
		ws.CumInjTCP = cumInjTCP
		for _, n := range attackerInj {
			ws.InjAttack += uint64(n)
		}
		ws.BlamedPorts = blamedPorts
		benignBacklog := ws.Backlog - ws.SuspectBacklog
		ws.FSM = chk.fsm(w, blamedPorts, benignBacklog)

		vs := chk.check(w, &ws, attackerBlamed, benignBlamed, attackerInj, benignBacklog)
		ws.Violations = len(vs)
		for i := range vs {
			jctl.Record(journal.KindViolation, 0, 0, 0, 0, float64(len(res.Violations)+i), 0, 0)
		}
		res.Violations = append(res.Violations, vs...)

		// SLO evaluation: each objective observes this window's bad/total
		// pair; the worst resulting state labels the window row, and any
		// per-objective state change is journalled with its burn rates.
		badLoss := float64(int64(ws.BenignLost) - int64(prevLost))
		totLoss := float64(ws.CumBenignMissInj - prevMissInj)
		prevLost, prevMissInj = ws.BenignLost, ws.CumBenignMissInj
		p99Bad := 0.0
		if ws.ReplayWaitP99Millis > float64(cfg.Window.Milliseconds()) {
			p99Bad = 1
		}
		obs := [...][2]float64{
			{badLoss, totLoss},
			{float64(chk.overdueNow), float64(chk.eligible)},
			{p99Bad, 1},
		}
		worst := telemetry.SLOOk
		for i, o := range sloObjs {
			st := o.Observe(obs[i][0], obs[i][1])
			if st != sloPrev[i] {
				short, long := o.Burns()
				jctl.Record(journal.KindSLO, uint8(st), uint8(i), 0, 0, short, long, 0)
				sloPrev[i] = st
			}
			if st > worst {
				worst = st
			}
		}
		ws.SLO = worst.String()
		res.Windows = append(res.Windows, ws)

		frac := memFrac(&ws, &cfg, len(atks))
		if frac > res.MaxMemFrac {
			res.MaxMemFrac = frac
		}
	}

	pipe.Stop()
	res.DistinctFlows = gen.distinct
	if n := len(res.Windows); n > 0 {
		res.BenignLoss = res.Windows[n-1].BenignLoss
	}
	res.Detected = chk.detectionConfirmed()

	if jnl != nil {
		// Final drain after Stop (the harness has been the journal's
		// consumer all along, through DrainCache and Advance), then the
		// flight-recorder dump.
		jnl.Drain()
		trigger := "complete"
		if len(res.Violations) > 0 {
			trigger = "violation"
		}
		dump, err := renderDump(jnl, &cfg, res, health.Names(), trigger)
		if err != nil {
			return nil, fmt.Errorf("soak: render journal dump: %w", err)
		}
		res.JournalDump = dump
	}

	res.Elapsed = time.Since(started)
	return res, nil
}

// renderDump serialises the flight recorder into the JSONL artifact:
// meta, retained events in canonical order, every violation, and a
// final metrics snapshot. Nothing here touches the wall clock, so a
// seeded run renders byte-identically.
func renderDump(jnl *journal.Journal, cfg *Config, res *Result, slos []string, trigger string) ([]byte, error) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	w.Meta(journal.Meta{
		Seed:    int64(cfg.Seed),
		Shards:  cfg.Shards,
		Windows: len(res.Windows),
		Trigger: trigger,
		SLOs:    slos,
		Dropped: jnl.Dropped(),
	})
	for _, ev := range jnl.Events() {
		w.Event(ev)
	}
	for _, v := range res.Violations {
		w.Violation(v.Window, v.Invariant, v.Detail)
	}
	last := WindowStats{}
	if n := len(res.Windows); n > 0 {
		last = res.Windows[n-1]
	}
	detected := 0.0
	if res.Detected {
		detected = 1
	}
	w.Metrics(map[string]float64{
		"processed":       float64(last.Processed),
		"forwarded":       float64(last.Forwarded),
		"misses":          float64(last.Misses),
		"enqueued":        float64(last.Enqueued),
		"emitted":         float64(last.Emitted),
		"dropped_benign":  float64(last.DroppedBenign),
		"dropped_suspect": float64(last.DroppedSuspect),
		"backlog":         float64(last.Backlog),
		"max_backlog":     float64(last.MaxBacklog),
		"replayed":        float64(last.Replayed),
		"benign_replayed": float64(last.BenignReplayed),
		"attack_replayed": float64(last.AttackReplayed),
		"benign_loss":     res.BenignLoss,
		"benign_lost":     float64(last.BenignLost),
		"max_mem_frac":    res.MaxMemFrac,
		"distinct_flows":  float64(res.DistinctFlows),
		"blamed_ports":    float64(last.BlamedPorts),
		"tracked_ports":   float64(last.TrackedPorts),
		"violations":      float64(len(res.Violations)),
		"detected":        detected,
		"tcp_replayed":    float64(last.TCPReplayed),
		"syn_acked":       float64(last.SynAcked),
		"guard_dropped":   float64(last.GuardDropped),
		"established":     float64(last.Established),
		"conn_watermark":  float64(last.ConnWatermark),
	})
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// hotFlowMod builds the exact-match flow_mod for benign hot flow f.
func hotFlowMod(gen *benignGen, f int) openflow.FlowMod {
	pkt := gen.flowPacket(f)
	return openflow.FlowMod{
		Match:    openflow.ExactFrom(&pkt, gen.port(f)),
		Command:  openflow.FlowAdd,
		Priority: 100,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
}

// collectWindow reads the barrier snapshot into a WindowStats row.
func collectWindow(w int, cfg *Config, pipe pipeline, gen *benignGen, tally *replayTally) WindowStats {
	p, f, m, rd := pipe.Counters()
	cs := pipe.CacheStats()
	attr := pipe.Attributor()
	ws := WindowStats{
		Window:              w,
		SimMillis:           (time.Duration(w+1) * cfg.Window).Milliseconds(),
		CumBenignHotInj:     gen.hotInj,
		CumBenignMissInj:    gen.missInj,
		Processed:           p,
		Forwarded:           f,
		Misses:              m,
		RingDrops:           rd,
		Enqueued:            cs.Enqueued,
		Emitted:             cs.Emitted,
		DroppedBenign:       cs.BenignDropped,
		DroppedSuspect:      cs.SuspectDropped,
		Backlog:             cs.Backlog,
		SuspectBacklog:      cs.SuspectBacklog,
		MaxBacklog:          cs.MaxBacklog,
		Replayed:            pipe.ReplayedTotal(),
		BenignReplayed:      tally.benign,
		AttackReplayed:      tally.attack,
		TCPReplayed:         tally.tcp,
		SynAckReplayed:      tally.synacks,
		TrackedPorts:        attr.TrackedPorts(),
		TrackedSources:      attr.TrackedSources(),
		SampleTotal:         attr.SampleTotal(),
		TableRules:          pipe.TableRules(),
		TCPOffenders:        attr.TCPOffenders(),
		ReplayWaitP99Millis: tally.p99Reset(),
	}
	if g := pipe.TCPGuard(); g != nil {
		ws.SynAcked, ws.GuardDropped = pipe.GuardCounters()
		gs := g.Stats()
		ws.Established = gs.Established
		ws.ConnEntries = gs.Entries
		ws.ConnWatermark = gs.Watermark
		ws.ConnBudget = gs.EntryBudget
	}
	// Ground-truth cumulative benign loss: cold benign offered, minus
	// replayed, minus what is still waiting in the benign UDP queue.
	if ws.CumBenignMissInj > 0 {
		benignWaiting := uint64(cs.PerQueue[dpcache.QueueUDP])
		lost := int64(ws.CumBenignMissInj) - int64(ws.BenignReplayed) - int64(benignWaiting)
		if lost > 0 {
			ws.BenignLoss = float64(lost) / float64(ws.CumBenignMissInj)
			ws.BenignLost = uint64(lost)
		}
	}
	return ws
}

// memFrac is the worst occupancy/budget ratio of the bounded
// structures — the run's RSS proxy, reported to the benchmark tier.
func memFrac(ws *WindowStats, cfg *Config, attackers int) float64 {
	frac := func(n, lim int) float64 {
		if lim <= 0 {
			return 0
		}
		return float64(n) / float64(lim)
	}
	out := frac(ws.TrackedPorts, cfg.Ports+attackers)
	if f := frac(ws.TrackedSources, 64); f > out {
		out = f
	}
	if f := frac(ws.TableRules, cfg.HotFlows+1); f > out {
		out = f
	}
	if f := frac(ws.Backlog, 9*cfg.QueueCapacity); f > out {
		out = f
	}
	if f := frac(ws.ConnEntries, ws.ConnBudget); f > out {
		out = f
	}
	return out
}

// waitFor spins (with scheduler yields) until cond holds, failing after
// a generous wall-clock deadline so a wedged pipeline surfaces as an
// error instead of a hung test.
func waitFor(cond func() bool, what string) error {
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("soak: timed out waiting for %s", what)
		}
		if i < 1000 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Print renders a run summary.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "soak — profile=%s duration=%v window=%v flows=%d shards=%d seed=%#x chaos=%v\n",
		r.Config.Profile, r.Config.Duration, r.Config.Window, r.Config.Flows, r.Config.Shards, r.Config.Seed, r.Config.Chaos)
	last := WindowStats{}
	if n := len(r.Windows); n > 0 {
		last = r.Windows[n-1]
	}
	fmt.Fprintf(w, "  windows    %d   distinct flows %d\n", len(r.Windows), r.DistinctFlows)
	fmt.Fprintf(w, "  pipeline   processed %d  forwarded %d  migrated %d\n", last.Processed, last.Forwarded, last.Misses)
	fmt.Fprintf(w, "  replay     benign %d  attack %d  dropped %d/%d (benign/suspect)\n",
		last.BenignReplayed, last.AttackReplayed, last.DroppedBenign, last.DroppedSuspect)
	fmt.Fprintf(w, "  benign loss %.5f   max mem frac %.3f   detected=%v\n", r.BenignLoss, r.MaxMemFrac, r.Detected)
	if r.Config.TCPGuardOn {
		fmt.Fprintf(w, "  tcpguard   synacked %d  dropped %d  established %d  conn watermark %d/%d  offenders %d\n",
			last.SynAcked, last.GuardDropped, last.Established, last.ConnWatermark, last.ConnBudget, last.TCPOffenders)
	}
	fmt.Fprintf(w, "  invariants  %d violations", len(r.Violations))
	if len(r.Violations) > 0 {
		fmt.Fprintf(w, " (first: %s)", r.Violations[0])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  elapsed    %v\n", r.Elapsed.Round(time.Millisecond))
}
