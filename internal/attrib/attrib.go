// Package attrib implements attack attribution for FloodGuard: given the
// sampled stream of table-miss packet_in headers (both the direct path
// through the Guard's hook and the migrated path through the data plane
// cache), it maintains per-ingress-port rate baselines and per-source
// frequency sketches, and emits a blame verdict per port each detection
// window.
//
// Port blame uses an EWMA baseline with a one-sided CUSUM detector: a
// port is blamed when its cumulative rate excursion above baseline
// crosses a threshold while its absolute rate is above a floor, and it
// heals after a run of calm windows once the excursion subsides. Source
// blame uses one count-min sketch: a source is suspect when its estimate
// owns more than a configured fraction of the recently sampled stream
// while an attack is in progress.
//
// The Guard consumes port verdicts for selective migration (only blamed
// ports get diversion rules); the data plane cache consumes the combined
// verdict through the Hinter interface to split its replay queues so
// benign collateral reaches the controller ahead of attack traffic.
package attrib

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"floodguard/internal/dpcache"
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/sketch"
	"floodguard/internal/telemetry"
)

// Config parameterises the attribution engine: the detector thresholds
// that experiments vary, and the bounds that tests shrink. Zero values
// pick the defaults noted per field. The baseline smoothing, the source
// sketch's geometry and the TCP completion ratio are the constants below.
type Config struct {
	// CUSUMThreshold is the cumulative rate excursion (packets/second
	// summed over windows) above baseline+drift at which a port is blamed
	// (default 30).
	CUSUMThreshold float64
	// CUSUMDrift is the slack rate subtracted each window before the
	// excursion accumulates, absorbing benign jitter (default 2 pps).
	CUSUMDrift float64
	// SuspectRatePPS is the absolute rate floor: a port is never blamed
	// while its window rate is below it, no matter the excursion. Set it
	// between the expected benign per-port packet_in rate and the attack
	// rate — a natural choice is the Guard's RateThresholdPPS (default 10).
	// The floor also gates baseline learning: windows strictly above it
	// never update the EWMA, so an attack cannot poison its own baseline
	// by ramping slowly.
	SuspectRatePPS float64
	// HealWindows is how many consecutive calm windows (rate back within
	// baseline+drift) un-blame a port (default 3).
	HealWindows int
	// Seed keys the sketch hashing; experiments pin it for reproducibility.
	Seed uint64
	// HeavyHitterFrac is the share of the sampled stream a single source
	// must own to be hinted suspect (default 0.25).
	HeavyHitterFrac float64
	// MinSampleTotal delays source verdicts until the sketch has seen this
	// many samples under the current decay horizon (default 64).
	MinSampleTotal uint64
	// DecayEveryWindows halves the source sketch every N Roll calls,
	// giving source estimates an exponential horizon (default 8).
	DecayEveryWindows int

	// TCPMaxSources bounds the per-source TCP handshake evidence fed by
	// the tcpguard tier (default 1024), in two places. Each shard holds
	// at most this many sources between hand-overs: once its table is
	// full, a new source is admitted through a count-min gate only when
	// it outnumbers the lightest held one. The shared table keeps at
	// most this many after each Roll, pruned lowest-SYN-count-first.
	TCPMaxSources int
	// TCPMinSyns is the minimum cumulative SYNs (or invalid segments)
	// from one source before its handshake record can brand it an
	// offender (default 16).
	TCPMinSyns uint64
}

const (
	// ewmaAlpha is the per-port baseline smoothing factor.
	ewmaAlpha = 0.3
	// sketchRows and sketchCols size the per-source count-min sketch and
	// each shard's local copy of it.
	sketchRows, sketchCols = 4, 1024
	// tcpCompletionFrac is the completion ratio below which a source with
	// enough SYNs is an offender: acks < frac × syns.
	tcpCompletionFrac = 0.1
)

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		CUSUMThreshold:    30,
		CUSUMDrift:        2,
		SuspectRatePPS:    10,
		HealWindows:       3,
		HeavyHitterFrac:   0.25,
		MinSampleTotal:    64,
		DecayEveryWindows: 8,
		TCPMaxSources:     1024,
		TCPMinSyns:        16,
	}
}

func (c *Config) normalize() {
	d := DefaultConfig()
	if c.CUSUMThreshold <= 0 || math.IsNaN(c.CUSUMThreshold) {
		c.CUSUMThreshold = d.CUSUMThreshold
	}
	if c.CUSUMDrift < 0 || math.IsNaN(c.CUSUMDrift) {
		c.CUSUMDrift = d.CUSUMDrift
	}
	if c.SuspectRatePPS <= 0 || math.IsNaN(c.SuspectRatePPS) {
		c.SuspectRatePPS = d.SuspectRatePPS
	}
	if c.HealWindows <= 0 {
		c.HealWindows = d.HealWindows
	}
	if c.HeavyHitterFrac <= 0 || c.HeavyHitterFrac > 1 || math.IsNaN(c.HeavyHitterFrac) {
		c.HeavyHitterFrac = d.HeavyHitterFrac
	}
	if c.MinSampleTotal == 0 {
		c.MinSampleTotal = d.MinSampleTotal
	}
	if c.DecayEveryWindows <= 0 {
		c.DecayEveryWindows = d.DecayEveryWindows
	}
	if c.TCPMaxSources <= 0 {
		c.TCPMaxSources = d.TCPMaxSources
	}
	if c.TCPMinSyns == 0 {
		c.TCPMinSyns = d.TCPMinSyns
	}
}

// portKey packs a datapath id and ingress port into one map key. The
// datapath ids in play are small (OpenFlow dpids the testbeds assign),
// so the shift cannot collide in practice; the key is only an index.
func portKey(dpid uint64, port uint16) uint64 { return dpid<<16 | uint64(port) }

// portState is one port's detector.
type portState struct {
	dpid uint64
	port uint16

	count  uint64  // samples in the open window
	ewma   float64 // baseline packet_in rate (pps)
	seen   bool    // baseline initialised
	cusum  float64 // one-sided excursion accumulator
	blamed bool
	calm   int // consecutive calm windows while blamed

	// lastBlamedRate is the rate of the most recent hot window while the
	// port was blamed — the heal verdict's evidence of what it healed from.
	lastBlamedRate float64
}

// Verdict is one port's attribution output for a closed window.
type Verdict struct {
	DPID uint64
	Port uint16
	// Blame is the excursion normalised by the threshold: >= 1 while the
	// detector holds the port responsible.
	Blame    float64
	RatePPS  float64
	Baseline float64
	Suspect  bool

	// Healed marks the window in which the port completed its calm run
	// and was un-blamed; the two evidence fields below say how.
	Healed bool
	// CalmWindows is the consecutive-calm-window count that satisfied the
	// heal threshold (only set when Healed).
	CalmWindows int
	// LastBlamedRate is the rate of the most recent hot window while the
	// port was blamed — what the port healed *from* (only set when Healed).
	LastBlamedRate float64
}

// Attributor is the attribution engine. ObservePacket and Hint are safe
// to call concurrently with Roll and with telemetry scrapes.
type Attributor struct {
	mu    sync.Mutex
	cfg   Config
	ports map[uint64]*portState
	// keys holds the portState map keys in sorted order so Roll closes
	// windows (and records journal events) in a deterministic port order
	// rather than Go's randomized map order.
	keys []uint64

	srcs *sketch.CountMin

	// jrec, when set, receives suspect/blame/heal evidence events from
	// Roll. Roll has a single caller goroutine per deployment (the guard
	// engine, the rtc cache loop or the soak harness), satisfying the
	// recorder's SPSC contract.
	jrec *journal.Recorder

	// view is what Hint reads, without a lock: every input of a verdict
	// that changes only at Roll. Roll publishes a new one when it differs.
	// blamedScratch and offScratch are Roll's working copies.
	view          atomic.Pointer[hintView]
	blamedScratch []uint64
	offScratch    []uint64
	verdicts      []Verdict // Roll's result, reused

	// tcpSrc is the bounded per-source handshake-evidence table, fed by
	// tcpguard verdicts through the shard observers' bounded delta
	// tables. Guarded by mu; the pending deltas are folded in, and the
	// table pruned and re-judged, at Roll. tcpRank, tcpEv and tcpFold are
	// Roll's scratch, kept between windows so the ranking is not
	// reallocated every 50 ms.
	tcpSrc  map[uint64]tcpEvidence
	tcpRank []tcpRank
	tcpEv   []tcpEvidence
	tcpFold []*tcpDeltas

	// tcpMu guards the hand-over of shard delta tables: tcpPend holds the
	// tables shards flushed since the last Roll, in flush order; tcpFree
	// the emptied tables Roll returns for the next Flush to take.
	tcpMu   sync.Mutex
	tcpPend []*tcpDeltas
	tcpFree []*tcpDeltas

	// tcpHeld is how many sources tcpSrc held after the last Roll;
	// tcpDropped counts the verdicts the shards' bound turned away or
	// evicted, folded in at Roll.
	tcpHeld    telemetry.Gauge
	tcpDropped atomic.Uint64

	windows    int
	blamedN    telemetry.Gauge
	blameEvts  telemetry.Counter
	healEvts   telemetry.Counter
	srcSuspect telemetry.Counter
}

// hintView is one Roll's immutable answer to "which ports are blamed and
// which sources are TCP offenders", both sorted for binary search.
type hintView struct {
	blamed    []uint64 // port keys
	offenders []uint64 // source addresses
}

// New builds an attribution engine.
func New(cfg Config) *Attributor {
	cfg.normalize()
	a := &Attributor{
		cfg:    cfg,
		ports:  make(map[uint64]*portState),
		srcs:   sketch.NewCountMin(sketchRows, sketchCols, cfg.Seed),
		tcpSrc: make(map[uint64]tcpEvidence),
	}
	a.view.Store(&hintView{})
	return a
}

// ObservePacket feeds one sampled packet_in header: the Guard calls it
// from its packet_in hook for direct table-misses, and the data plane
// cache calls it (as its Observer) for migrated ones, so attribution sees
// the full stream regardless of which ports are currently diverted.
func (a *Attributor) ObservePacket(origin uint64, inPort uint16, pkt *netpkt.Packet) {
	a.mu.Lock()
	a.stateLocked(portKey(origin, inPort)).count++
	a.mu.Unlock()
	if pkt != nil && pkt.IsIP() {
		a.srcs.Update(uint64(pkt.NwSrc), 1)
	}
}

// stateLocked returns the detector for a port key, creating it (and
// keeping the sorted key index in step) on first sight. Caller holds
// a.mu.
func (a *Attributor) stateLocked(k uint64) *portState {
	if ps := a.ports[k]; ps != nil {
		return ps
	}
	ps := &portState{dpid: k >> 16, port: uint16(k)}
	a.ports[k] = ps
	i := sort.Search(len(a.keys), func(i int) bool { return a.keys[i] >= k })
	a.keys = append(a.keys, 0)
	copy(a.keys[i+1:], a.keys[i:])
	a.keys[i] = k
	return ps
}

// SetJournal attaches a decision-journal recorder; Roll then records
// suspect/blame/heal evidence events. The recorder is single-producer:
// only Roll's caller goroutine writes to it.
func (a *Attributor) SetJournal(rec *journal.Recorder) {
	a.mu.Lock()
	a.jrec = rec
	a.mu.Unlock()
}

// Roll closes the current detection window of the given length and
// returns the per-port verdicts, valid until the next Roll. The Guard
// calls it once per sample interval; a non-positive window is ignored
// (nil verdicts).
func (a *Attributor) Roll(window time.Duration) []Verdict {
	secs := window.Seconds()
	if secs <= 0 || math.IsNaN(secs) {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	verdicts := a.verdicts[:0]
	blamed := a.blamedScratch[:0]
	for _, k := range a.keys {
		ps := a.ports[k]
		rate := float64(ps.count) / secs
		ps.count = 0

		if !ps.seen {
			ps.seen = true
			// First window: start the baseline at zero so a port that is
			// born attacking cannot smuggle the attack rate into its own
			// baseline; the CUSUM then sees the full excursion.
		}

		healed := false
		if ps.blamed {
			// Baseline frozen at its pre-attack value; watch for calm.
			if rate <= ps.ewma+a.cfg.CUSUMDrift {
				ps.calm++
				if ps.calm >= a.cfg.HealWindows {
					ps.blamed = false
					healed = true
					ps.cusum = 0
					a.healEvts.Inc()
					a.jrec.Record(journal.KindHeal, 0, 0, ps.dpid, ps.port,
						float64(ps.calm), ps.lastBlamedRate, ps.ewma)
				}
			} else {
				ps.calm = 0
				ps.lastBlamedRate = rate
			}
		} else {
			ps.cusum = math.Max(0, ps.cusum+rate-ps.ewma-a.cfg.CUSUMDrift)
			if ps.cusum >= a.cfg.CUSUMThreshold && rate >= a.cfg.SuspectRatePPS {
				ps.blamed = true
				ps.calm = 0
				ps.lastBlamedRate = rate
				a.blameEvts.Inc()
				a.jrec.Record(journal.KindBlame, 0, 0, ps.dpid, ps.port,
					rate, ps.ewma, rate-ps.ewma-a.cfg.CUSUMDrift)
			} else if ps.cusum > 0 {
				// Pre-blame evidence: the excursion is accumulating but has
				// not crossed the threshold yet.
				a.jrec.Record(journal.KindSuspect, 0, 0, ps.dpid, ps.port,
					rate, ps.ewma, ps.cusum/a.cfg.CUSUMThreshold)
			}
			if !ps.blamed && rate <= a.cfg.SuspectRatePPS {
				// The baseline learns only from sub-floor windows. A rate
				// above the suspect floor is by definition suspicious;
				// folding it into the EWMA would let an attacker ramp more
				// slowly than the EWMA lag (slope below CUSUMDrift*alpha/
				// (1-alpha) per window) poison its own baseline and hold a
				// full-rate flood forever without the excursion ever
				// accumulating.
				ps.ewma = ewmaAlpha*rate + (1-ewmaAlpha)*ps.ewma
			}
		}
		if ps.blamed {
			blamed = append(blamed, k)
		}
		v := Verdict{
			DPID:     ps.dpid,
			Port:     ps.port,
			Blame:    ps.cusum / a.cfg.CUSUMThreshold,
			RatePPS:  rate,
			Baseline: ps.ewma,
			Suspect:  ps.blamed,
		}
		if healed {
			v.Healed = true
			v.CalmWindows = ps.calm
			v.LastBlamedRate = ps.lastBlamedRate
			ps.calm = 0
		}
		verdicts = append(verdicts, v)
	}
	a.verdicts = verdicts
	a.blamedN.Set(int64(len(blamed)))

	a.windows++
	if a.windows%a.cfg.DecayEveryWindows == 0 {
		a.srcs.Decay()
	}
	offenders := a.rollTCPLocked(a.offScratch[:0])
	a.publishView(blamed, offenders)
	return verdicts
}

// publishView stores a new Hint view when this Roll's blamed ports or
// offenders differ from the published ones; an unchanged Roll allocates
// nothing. blamed arrives sorted (a.keys order); offenders is sorted
// here. Both are kept as the next Roll's scratch. Caller holds a.mu.
func (a *Attributor) publishView(blamed, offenders []uint64) {
	slices.Sort(offenders)
	a.blamedScratch, a.offScratch = blamed, offenders
	if v := a.view.Load(); slices.Equal(v.blamed, blamed) && slices.Equal(v.offenders, offenders) {
		return
	}
	buf := append(append(make([]uint64, 0, len(blamed)+len(offenders)), blamed...), offenders...)
	a.view.Store(&hintView{blamed: buf[:len(blamed):len(blamed)], offenders: buf[len(blamed):]})
}

// Hint implements dpcache.Hinter: a packet is suspect when its ingress
// port is blamed, or — while any port is blamed — when its source owns
// more than HeavyHitterFrac of the sampled stream. The attack-in-progress
// gate keeps a lone benign talker (100% of a quiet stream) from being
// branded a heavy hitter outside attacks. It takes no lock: the port and
// handshake verdicts come from the view the last Roll published.
func (a *Attributor) Hint(origin uint64, inPort uint16, pkt *netpkt.Packet) uint8 {
	v := a.view.Load()
	if _, blamed := slices.BinarySearch(v.blamed, portKey(origin, inPort)); blamed {
		return dpcache.HintSuspect
	}
	if pkt == nil || !pkt.IsIP() {
		return dpcache.HintBenign
	}
	src := uint64(pkt.NwSrc)
	if _, offender := slices.BinarySearch(v.offenders, src); offender {
		// Handshake evidence stands on its own: a source whose SYNs never
		// turn into valid ACKs is suspect even before any port-level rate
		// excursion accumulates.
		a.srcSuspect.Inc()
		return dpcache.HintSuspect
	}
	if len(v.blamed) > 0 {
		total := a.srcs.Total()
		if total >= a.cfg.MinSampleTotal {
			est := a.srcs.Estimate(src)
			if float64(est) >= a.cfg.HeavyHitterFrac*float64(total) {
				a.srcSuspect.Inc()
				return dpcache.HintSuspect
			}
		}
	}
	return dpcache.HintBenign
}

// Blamed reports whether a port is currently blamed.
func (a *Attributor) Blamed(dpid uint64, port uint16) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.ports[portKey(dpid, port)]
	return ps != nil && ps.blamed
}

// TrackedPorts returns how many (dpid, port) detectors are live — the
// attribution engine's per-port memory footprint, one small struct per
// distinct ingress port ever observed.
func (a *Attributor) TrackedPorts() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ports)
}

// SampleTotal returns the source sketch's sample count under the
// current decay horizon.
func (a *Attributor) SampleTotal() uint64 { return a.srcs.Total() }

// Register attaches attribution telemetry under the given prefix.
func (a *Attributor) Register(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterGauge(prefix+"_blamed_ports", "Ports currently blamed by attribution.", &a.blamedN)
	reg.RegisterCounter(prefix+"_blame_transitions_total", "Port blame onsets.", &a.blameEvts)
	reg.RegisterCounter(prefix+"_heal_transitions_total", "Port blame heals.", &a.healEvts)
	reg.RegisterCounter(prefix+"_source_suspect_hints_total", "Packets hinted suspect by source heavy-hitter verdict.", &a.srcSuspect)
	reg.GaugeFunc(prefix+"_sample_total", "Samples in the source sketch under the current decay horizon.", func() float64 {
		return float64(a.srcs.Total())
	})
	reg.RegisterGauge(prefix+"_tcp_sources", "Sources the TCP handshake-evidence table held after the last Roll.", &a.tcpHeld)
	reg.CounterFunc(prefix+"_tcp_verdicts_dropped_total", "TCP handshake verdicts the per-shard evidence bound turned away or evicted.", a.tcpDropped.Load)
}
