package soak

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"time"

	"floodguard/internal/attrib"
	"floodguard/internal/core"
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

	BlamedPorts  int
	TrackedPorts int
	SampleTotal  uint64
	TableRules   int

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
// the engine already has. Everything runs on the harness goroutine:
// InjectItem carries a packet through its shard and, on a miss, into
// the cache before it returns; Flush is the window barrier; Advance
// pumps virtual time; Cache() is the harness's to touch between calls.
type pipeline interface {
	Apply(m openflow.FlowMod) error
	Start()
	Stop()
	InjectItem(it *rtc.Item) bool
	Flush()
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
// plan. The callback runs inside InjectItem, on the harness goroutine,
// so every client SYN offered this window has its answer in the box by
// the time the harness takes them. The completing ACKs go in sorted by
// port, source and source port — not in the SYNs' injection order —
// because that is the order the seeded outputs were pinned with.
type synackBox struct {
	got  []synackRec // client SYN-ACKs since the last take
	acks []synackRec // the last take; reused by the next one
}

// synackRec keeps what the completing ACK needs of a client SYN-ACK,
// so the per-window sort moves 36 bytes a record, not a whole packet.
type synackRec struct {
	inPort, cport, sport uint16      // cport and sport: the SYN-ACK's TpDst and TpSrc
	client, server       netpkt.IPv4 // the SYN-ACK's NwDst and NwSrc
	seq, ack             uint32      // the SYN-ACK's TCPSeq and TCPAck
	clientMAC, serverMAC netpkt.MAC
}

// collect keeps only SYN-ACKs addressed to the client plan. Every
// attacker SYN is answered too — the guard mints the cookie either way —
// but attackers never complete, so their answers are dropped here
// instead of being buffered for a window.
func (b *synackBox) collect(_ uint64, inPort uint16, sa netpkt.Packet) {
	if !isTCPClientSrc(sa.NwDst) { // SYN-ACK's destination is the client
		return
	}
	b.got = append(b.got, synackRec{
		inPort: inPort, client: sa.NwDst, server: sa.NwSrc, cport: sa.TpDst, sport: sa.TpSrc,
		seq: sa.TCPSeq, ack: sa.TCPAck, clientMAC: sa.EthDst, serverMAC: sa.EthSrc,
	})
}

// takeClientAcks drains the box and returns the client SYN-ACKs in
// deterministic order; completingAck builds each one's ACK. The
// returned slice is valid until the next call.
func (b *synackBox) takeClientAcks() []synackRec {
	out := b.got
	b.got, b.acks = b.acks[:0], out
	// Every client connection is a distinct (source, source port), so
	// the keys are unique and any sort yields the same order.
	slices.SortFunc(out, func(a, b synackRec) int {
		return cmp.Or(
			cmp.Compare(a.inPort, b.inPort),
			cmp.Compare(a.client, b.client),
			cmp.Compare(a.cport, b.cport),
		)
	})
	return out
}

// completingAck is the closed-loop client's valid ACK for the SYN-ACK r.
func (r *synackRec) completingAck() netpkt.Packet {
	return netpkt.Packet{
		EthSrc:   r.clientMAC,
		EthDst:   r.serverMAC,
		EthType:  netpkt.EtherTypeIPv4,
		NwSrc:    r.client,
		NwDst:    r.server,
		NwProto:  netpkt.ProtoTCP,
		TpSrc:    r.cport,
		TpDst:    r.sport,
		TCPFlags: netpkt.TCPAck,
		TCPSeq:   r.ack,
		TCPAck:   r.seq + 1,
	}
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
// mode, install the hot-flow rules, then march window by window on one
// goroutine — inject the benign+attack schedule, complete the benign
// handshakes, flush the shard attribution deltas in shard order, advance
// simulated time, roll the detection window, and hand the barrier
// snapshot to the invariant checker. Any violation is recorded, never
// fatal: the full run's evidence comes back in the Result.
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
		Shards:         cfg.Shards,
		QueueCapacity:  cfg.QueueCapacity,
		ReplayPPS:      cfg.ReplayPPS,
		Window:         cfg.Window,
		Attrib:         attribConfigFor(&cfg),
		Manual:         true,
		ReplayObserver: tally.observe,
		Journal:        jnl,
	}
	if cfg.TCPGuardOn {
		rcfg.TCPGuard = &tcpguard.Config{
			Secret:           uint64(cfg.Seed) ^ 0x7cfb_51a9,
			PerShardCapacity: soakConnCapacity,
			SynAck:           box.collect,
		}
	}
	pipe := build(rcfg)

	gen := newBenignGen(&cfg)
	tgen := &tcpConnGen{cfg: &cfg}
	atks := buildAttackers(&cfg)
	plan := chaosPlan(&cfg)
	acfg := attribConfigFor(&cfg)
	chk := newChecker(&cfg, atks, plan, acfg.SuspectRatePPS, acfg.HealWindows)

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
	attackerBlamed := make([]bool, len(atks))
	attackerInj := make([]int, len(atks))
	var slots []uint8
	// Every injected packet is written into this one item: InjectItem
	// does not keep it, and an item passed through the pipeline interface
	// escapes, so one per packet would be one allocation per packet.
	it := new(rtc.Item)
	var benignBlamed []uint16
	outage := false

	// Control-plane journal recorder (all methods nil-safe when the
	// journal is off): chaos faults, FSM and migration decisions,
	// violations and SLO flips recorded by this harness goroutine.
	jctl := jnl.ControlRec()

	// The Guard's decision policy, stepped once per window barrier. The
	// harness records its transitions and migration moves; replay runs at
	// the scenario's ReplayPPS, so its rate decision goes unused.
	det := core.DefaultDetection()
	det.SampleInterval = cfg.Window
	policy := core.NewPolicy(det, core.DefaultRateLimit())
	var prevMisses uint64

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
		pipe.Attributor().Register(cfg.Registry, "fg_soak_attrib")
	}
	sloPrev := make([]telemetry.SLOState, len(sloObjs))
	var prevLost, prevMissInj uint64

	fail := func(err error) (*Result, error) {
		pipe.Stop()
		return nil, err
	}

	for w := 0; w < windows; w++ {
		jnl.SetWindow(w)

		// Chaos, applied at the barrier while the pipeline is quiescent:
		// rule churn and replay outages for the coming window.
		if plan[w].Churn && cfg.HotFlows > 0 {
			f := w % cfg.HotFlows
			if err := churnHotFlow(pipe, gen, f); err != nil {
				return fail(fmt.Errorf("soak: chaos churn: %w", err))
			}
			jctl.Record(journal.KindChaos, 3, 0, 1, uint16(f), 1, 0, 0)
		}

		// Scenario-driven rule churn, distinct from the chaos single-flow
		// bump above: FlowModsPerWindow hot flows are strict-deleted and
		// re-installed at every barrier, round-robin over the zipf head.
		// This drives Engine.Apply against the owning shards' partitions
		// at a sustained rate while the invariant catalog keeps asserting.
		for i := 0; i < cfg.FlowModsPerWindow; i++ {
			f := (w*cfg.FlowModsPerWindow + i) % cfg.HotFlows
			if err := churnHotFlow(pipe, gen, f); err != nil {
				return fail(fmt.Errorf("soak: flowmod churn: %w", err))
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

		// Inject: each packet is through its shard, and a miss into the
		// cache, when InjectItem returns.
		for _, s := range slots {
			if s == 0 {
				gen.fill(it)
			} else {
				atks[s-1].fill(it, w)
			}
			pipe.InjectItem(it)
		}
		cumInjBenign += uint64(benignN)
		for _, n := range attackerInj {
			cumInjAttack += uint64(n)
		}

		// Benign TCP connection attempts: this window's SYNs. Their
		// cookie SYN-ACKs are in the box as soon as the SYNs are in.
		var winTCP uint64
		for i := 0; i < cfg.TCPConns; i++ {
			tgen.fillSyn(it)
			pipe.InjectItem(it)
			winTCP++
		}

		// Closed-loop handshake completion: answer every client cookie
		// SYN-ACK with its valid ACK, so the established flows are in the
		// cache before the barrier snapshot.
		acks := box.takeClientAcks()
		for i := range acks {
			it.Pkt, it.InPort = acks[i].completingAck(), acks[i].inPort
			pipe.InjectItem(it)
			winTCP++
		}
		cumInjTCP += winTCP

		// Merge the shard attribution deltas, in shard order so the
		// sketch merge sequence is identical run to run.
		pipe.Flush()

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

		// Step the policy on the window: misses are its packet_ins, and a
		// chaos outage takes the sideband down. The engine has no
		// proactive rules to derive, so a fresh Init is derived at once.
		view := core.Observation{
			Tick:      core.TickSample,
			PacketIns: int(ws.Misses - prevMisses),
			Enqueued:  ws.Enqueued,
			Reachable: !plan[w].Outage,
			Drained:   ws.Backlog == 0,
			Verdicts:  verdicts,
		}
		prevMisses = ws.Misses
		for d := policy.Step(view); ; d = policy.Step(view) {
			for _, tr := range d.Transitions {
				jctl.Record(journal.KindFSM, uint8(tr.To), uint8(tr.From), 0, 0,
					policy.PacketInRate(), float64(ws.Backlog), policy.MigrationRate())
			}
			for _, m := range d.Moves {
				kind := journal.KindUnmigrate
				if m.Divert {
					kind = journal.KindMigrate
				}
				jctl.Record(kind, 0, 0, m.DPID, m.Port, 0, 0, 0)
			}
			if !d.Derive {
				break
			}
			view.Tick = core.TickDerived
		}
		ws.FSM = policy.State().String()
		benignBacklog := ws.Backlog - ws.SuspectBacklog

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
		// consumer all along, through Advance), then the flight-recorder
		// dump.
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
	var pkt netpkt.Packet
	writeFlow(&pkt, f)
	return openflow.FlowMod{
		Match:    openflow.ExactFrom(&pkt, gen.port(f)),
		Command:  openflow.FlowAdd,
		Priority: 100,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
}

// churnHotFlow strict-deletes benign hot flow f's rule and re-installs
// it: one unit of rule churn through the pipeline's apply path.
func churnHotFlow(pipe pipeline, gen *benignGen, f int) error {
	del := hotFlowMod(gen, f)
	del.Command = openflow.FlowDeleteStrict
	del.OutPort = openflow.PortNone // no out_port filter: really delete
	if err := pipe.Apply(del); err != nil {
		return fmt.Errorf("delete flow %d: %w", f, err)
	}
	if err := pipe.Apply(hotFlowMod(gen, f)); err != nil {
		return fmt.Errorf("re-add flow %d: %w", f, err)
	}
	return nil
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
