package soak

import (
	"fmt"
)

// Violation is one failed invariant at one window. The checker runs
// every window — a soak that only asserts at exit can hide a livelock
// that heals just before the end; this one cannot.
type Violation struct {
	Window    int
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("w%d %s: %s", v.Window, v.Invariant, v.Detail)
}

// checker holds the soak invariant catalog and the cross-window state
// the liveness checks need (blame streaks, drain deadlines).
type checker struct {
	cfg      *Config
	atks     []*attacker
	plan     []windowChaos
	floorPPS float64 // attribution blame floor (3x per-port benign rate)
	healHor  int     // attrib heal windows + configured slack
	topK     int

	aboveSince []int // per attacker: start of current above-floor-unblamed streak (-1 none)
	everBlamed []bool
	drainBy    int // window by which the benign backlog must have drained (-1 none)

	// Detect-SLO inputs, refreshed by each check() call: how many
	// non-slow attackers exist, and how many of them are past their
	// detection deadline this window.
	eligible   int
	overdueNow int
}

func newChecker(cfg *Config, atks []*attacker, plan []windowChaos, floorPPS float64, healWindows, topK int) *checker {
	c := &checker{
		cfg:        cfg,
		atks:       atks,
		plan:       plan,
		floorPPS:   floorPPS,
		healHor:    healWindows + cfg.HealSlackWindows,
		topK:       topK,
		aboveSince: make([]int, len(atks)),
		everBlamed: make([]bool, len(atks)),
		drainBy:    -1,
	}
	for i := range c.aboveSince {
		c.aboveSince[i] = -1
	}
	for _, a := range atks {
		if !exemptFromDetection(a.profile) {
			c.eligible++
		}
	}
	return c
}

// degradedThreshold is the benign-side backlog above which the run
// counts as Degraded (an outage is piling benign packets up).
func (c *checker) degradedThreshold() int { return c.cfg.QueueCapacity / 2 }

// fsm names the run state for window w — the three-state soak model the
// liveness checks police: Calm (nothing blamed), Defense (attribution
// holds ports responsible), Degraded (a chaos outage, or its backlog,
// is impairing the benign path).
func (c *checker) fsm(w int, blamedPorts, benignBacklog int) string {
	if c.plan[w].Outage || benignBacklog >= c.degradedThreshold() {
		return "degraded"
	}
	if blamedPorts > 0 {
		return "defense"
	}
	return "calm"
}

// check runs the full catalog against window w and returns the
// violations. ws carries cumulative pipeline counters; attackerBlamed
// and benignBlamed are the verdicts of the roll that just closed w;
// attackerInj is this window's per-attacker offered packet count.
func (c *checker) check(w int, ws *WindowStats, attackerBlamed []bool, benignBlamed []uint16, attackerInj []int, benignBacklog int) []Violation {
	var out []Violation
	add := func(inv, format string, args ...any) {
		out = append(out, Violation{Window: w, Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}
	c.overdueNow = 0

	// --- Conservation: every packet is accounted for at every seam. ---
	if ws.Processed != ws.CumInjBenign+ws.CumInjAttack+ws.CumInjTCP {
		add("conservation", "processed %d != injected %d", ws.Processed, ws.CumInjBenign+ws.CumInjAttack+ws.CumInjTCP)
	}
	if ws.Forwarded+ws.Misses != ws.Processed {
		add("conservation", "forwarded %d + misses %d != processed %d", ws.Forwarded, ws.Misses, ws.Processed)
	}
	if ws.RingDrops != 0 {
		add("conservation", "ring drops %d != 0 (manual-mode backpressure breached)", ws.RingDrops)
	}
	if ws.Enqueued+ws.RingDrops+ws.SynAcked+ws.GuardDropped != ws.Misses {
		add("conservation", "enqueued %d + ring drops %d + guard consumed %d+%d != misses %d",
			ws.Enqueued, ws.RingDrops, ws.SynAcked, ws.GuardDropped, ws.Misses)
	}
	if ws.Enqueued != ws.Emitted+ws.DroppedBenign+ws.DroppedSuspect+uint64(ws.Backlog) {
		add("conservation", "enqueued %d != emitted %d + dropped %d+%d + backlog %d",
			ws.Enqueued, ws.Emitted, ws.DroppedBenign, ws.DroppedSuspect, ws.Backlog)
	}
	if ws.Emitted != ws.Replayed {
		add("conservation", "cache emitted %d != sink replayed %d", ws.Emitted, ws.Replayed)
	}
	if ws.Replayed != ws.BenignReplayed+ws.AttackReplayed+ws.TCPReplayed {
		add("conservation", "replayed %d != benign %d + attack %d + tcp %d",
			ws.Replayed, ws.BenignReplayed, ws.AttackReplayed, ws.TCPReplayed)
	}
	if ws.Misses != ws.CumBenignMissInj+ws.CumInjAttack+ws.CumInjTCP {
		add("conservation", "misses %d != ground-truth cold benign %d + attack %d + tcp %d (a hot flow missed)",
			ws.Misses, ws.CumBenignMissInj, ws.CumInjAttack, ws.CumInjTCP)
	}
	if ws.Forwarded != ws.CumBenignHotInj {
		add("conservation", "forwarded %d != ground-truth hot benign %d (rule churn misrouted a flow)",
			ws.Forwarded, ws.CumBenignHotInj)
	}

	// --- Benign-loss ceiling: collateral damage stays bounded. ---
	if ws.CumBenignMissInj > 0 && ws.BenignLoss > c.cfg.BenignLossCeiling {
		add("benign-loss", "cumulative benign loss %.4f > ceiling %.4f", ws.BenignLoss, c.cfg.BenignLossCeiling)
	}

	// --- Memory ceilings: every summarising structure stays bounded
	// however many distinct flows/sources the adversary shows us. ---
	if lim := c.cfg.Ports + len(c.atks); ws.TrackedPorts > lim {
		add("memory", "tracked ports %d > budget %d", ws.TrackedPorts, lim)
	}
	if ws.TrackedSources > c.topK {
		add("memory", "heavy-hitter entries %d > top-k %d", ws.TrackedSources, c.topK)
	}
	if lim := c.cfg.HotFlows + 1; ws.TableRules > lim {
		add("memory", "flow table rules %d > budget %d", ws.TableRules, lim)
	}
	if lim := 9 * c.cfg.QueueCapacity; ws.Backlog > lim {
		add("memory", "cache backlog %d > structural bound %d", ws.Backlog, lim)
	}
	// The SYN-proxy connection table stays under its fixed budget no
	// matter how many half-open handshakes the adversary offers — the
	// watermark catches intra-window excursions the barrier snapshot
	// would miss.
	if c.cfg.TCPGuardOn {
		if ws.ConnEntries > ws.ConnBudget {
			add("memory", "guard conn entries %d > budget %d", ws.ConnEntries, ws.ConnBudget)
		}
		if ws.ConnWatermark > ws.ConnBudget {
			add("memory", "guard conn watermark %d > budget %d", ws.ConnWatermark, ws.ConnBudget)
		}
		// The tier's core promise: cookie SYN-ACKs are answered in the
		// data plane; none ride the replay path to the controller.
		if ws.SynAckReplayed != 0 {
			add("tcpguard", "%d cookie SYN-ACKs replayed to the controller", ws.SynAckReplayed)
		}
	}

	// --- FSM liveness. ---
	for _, p := range benignBlamed {
		add("liveness", "benign port %d blamed (stranded benign traffic)", p)
	}
	winSecs := c.cfg.Window.Seconds()
	for i, a := range c.atks {
		blamed := attackerBlamed[i]
		if blamed {
			c.everBlamed[i] = true
		}
		if a.profile == ProfileSlow {
			// Graceful degradation by design: sub-floor rate must never be
			// blamed — shedding it would mean the floor is miscalibrated
			// and real low-rate tenants would be shed with it.
			if blamed {
				add("liveness", "slow-DDoS port %d blamed below the rate floor", a.port)
			}
			continue
		}
		if exemptFromDetection(a.profile) {
			// Stealthy TCP profiles are judged by per-source handshake
			// evidence, not the port-rate deadline.
			continue
		}
		// Detection: an above-floor attacker cannot run unblamed for more
		// than DetectWindows consecutive windows.
		above := float64(attackerInj[i])/winSecs >= c.floorPPS
		switch {
		case !above || blamed:
			c.aboveSince[i] = -1
		case c.aboveSince[i] < 0:
			c.aboveSince[i] = w
		case w-c.aboveSince[i]+1 > c.cfg.DetectWindows:
			c.overdueNow++
			add("liveness", "%s port %d above the blame floor for %d windows without blame",
				a.profile, a.port, w-c.aboveSince[i]+1)
		}
		// Heal: once the attacker stops for good, blame must clear within
		// the heal horizon — no Defense livelock.
		if w >= a.stop+c.healHor && blamed {
			add("liveness", "%s port %d still blamed %d windows after the attack stopped",
				a.profile, a.port, w-a.stop)
		}
	}
	// Degraded drain: after an outage the benign backlog must fall back
	// under the degraded threshold within the drain slack.
	if c.plan[w].Outage {
		c.drainBy = w + 1 + c.cfg.DrainSlackWindows
	}
	if c.drainBy >= 0 && w >= c.drainBy {
		if benignBacklog >= c.degradedThreshold() {
			add("liveness", "benign backlog %d still degraded %d windows after the outage",
				benignBacklog, w-c.drainBy+1+c.cfg.DrainSlackWindows)
		} else {
			c.drainBy = -1
		}
	}
	return out
}

// detectionConfirmed reports whether every above-floor attacker was
// blamed at least once — the run-level complement of the per-window
// detection deadline. Evidence-judged TCP profiles and attackers whose
// peak never crosses the blame floor are out of scope by design.
func (c *checker) detectionConfirmed() bool {
	for i, a := range c.atks {
		if exemptFromDetection(a.profile) || a.peak < c.floorPPS {
			continue
		}
		if !c.everBlamed[i] {
			return false
		}
	}
	return true
}
