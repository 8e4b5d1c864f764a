package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"floodguard/internal/attrib"
)

// Policy observations for the default detector (50 ms windows, 60 pps
// threshold): a hot window carries 2 000 pps of packet_ins, a calm one
// none. Each helper takes the sideband health and carries blanket
// migration's port input.
func hotObs(up bool) Observation {
	return Observation{Tick: TickSample, PacketIns: 100, Reachable: up, Verdicts: blanket}
}
func calmObs(up bool) Observation {
	return Observation{Tick: TickSample, Reachable: up, Verdicts: blanket}
}
func drainedObs(up bool) Observation {
	return Observation{Tick: TickSample, Reachable: up, Drained: true, Verdicts: blanket}
}
func tickObs(t Tick, up bool) Observation {
	return Observation{Tick: t, Reachable: up, Verdicts: blanket}
}

// blanket is what a blanket-migration shell supplies: every ingress port
// of datapath 1, suspect.
var blanket = []attrib.Verdict{{DPID: 1, Port: 1, Suspect: true}, {DPID: 1, Port: 2, Suspect: true}}

// divertAll is the step that diverts every port of blanket's input.
var divertAll = []PortMove{{DPID: 1, Port: 1, Divert: true}, {DPID: 1, Port: 2, Divert: true}}

// migrating reports whether every port of blanket's input is diverted
// (the sum of every Moves so far) and fails the test if only some are.
func migrating(t *testing.T, p *Policy) bool {
	t.Helper()
	switch got := p.Diverted(); {
	case len(got) == 0:
		return false
	case !slices.Equal(got, divertAll):
		t.Fatalf("diverted %+v: want every port of the input or none", got)
	}
	return true
}

func testPolicy() *Policy {
	return NewPolicy(DefaultDetection(), DefaultRateLimit())
}

// repeat steps o until the policy leaves its state (or n steps pass) and
// returns every transition seen.
func repeat(p *Policy, o Observation, n int) []Transition {
	var out []Transition
	from := p.State()
	for i := 0; i < n && p.State() == from; i++ {
		out = append(out, p.Step(o).Transitions...)
	}
	return out
}

// policyIn drives a fresh policy into state s through observations only.
func policyIn(t *testing.T, s FSMState) *Policy {
	t.Helper()
	p := testPolicy()
	steps := map[FSMState][]Observation{
		StateIdle:     nil,
		StateInit:     {hotObs(true)},
		StateDefense:  {hotObs(true), tickObs(TickDerived, true)},
		StateFinish:   {hotObs(true), tickObs(TickDerived, true), calmObs(true)},
		StateDegraded: {hotObs(true), tickObs(TickDerived, true), tickObs(TickNone, false)},
	}[s]
	for _, o := range steps {
		repeat(p, o, 100)
	}
	if p.State() != s {
		t.Fatalf("could not drive the policy into %v (at %v)", s, p.State())
	}
	return p
}

func TestFSMLegalCycle(t *testing.T) {
	p := testPolicy()
	if p.State() != StateIdle {
		t.Fatalf("initial state = %v", p.State())
	}
	d := p.Step(hotObs(true))
	if len(d.Transitions) != 0 || len(d.Moves) != 0 || d.Rate != 0 {
		t.Fatalf("one hot window already acted: %+v", d)
	}
	d = p.Step(hotObs(true))
	if p.State() != StateInit || !d.Derive || !slices.Equal(d.Moves, divertAll) || d.Rate != DefaultRateLimit().MinPPS {
		t.Fatalf("detection: state %v, decisions %+v; want init deriving, migrating at the floor rate", p.State(), d)
	}
	if d = p.Step(tickObs(TickDerived, true)); p.State() != StateDefense || !migrating(t, p) || d.Derive {
		t.Fatalf("derived: state %v, decisions %+v", p.State(), d)
	}
	repeat(p, calmObs(true), 100)
	if p.State() != StateFinish {
		t.Fatalf("state after calm = %v, want finish", p.State())
	}
	if d = p.Step(calmObs(true)); migrating(t, p) || d.Rate == 0 {
		t.Fatalf("finish: decisions %+v; want migration off, replay still draining", d)
	}
	if p.Step(drainedObs(false)); p.State() != StateFinish {
		t.Fatalf("drained with the sideband down: state %v, want finish", p.State())
	}
	if d = p.Step(drainedObs(true)); p.State() != StateIdle || d.Rate != 0 {
		t.Fatalf("drained: state %v, decisions %+v; want idle with replay parked", p.State(), d)
	}
}

func TestFSMFinishCanReenterInit(t *testing.T) {
	p := policyIn(t, StateFinish)
	p.Step(Observation{Tick: TickAdjust, Reachable: true}) // grow the replay rate off the floor
	trs := repeat(p, hotObs(true), 10)
	if p.State() != StateInit || len(trs) != 1 || trs[0].From != StateFinish {
		t.Fatalf("re-detection: state %v, transitions %+v", p.State(), trs)
	}
	d := p.Step(tickObs(TickNone, true))
	if !migrating(t, p) || d.Rate != DefaultRateLimit().MinPPS {
		t.Errorf("re-entered Init: decisions %+v; want migrating, replay back at the floor", d)
	}
}

// legalEdges is Figure 3 plus the degraded extension: the relation
// every Step must stay inside.
var legalEdges = map[FSMState][]FSMState{
	StateIdle:     {StateInit},
	StateInit:     {StateDefense},
	StateDefense:  {StateFinish, StateDegraded},
	StateFinish:   {StateIdle, StateInit},
	StateDegraded: {StateDefense, StateFinish},
}

// probes is every kind of observation, with the sideband up and down.
func probes() []Observation {
	var out []Observation
	for _, up := range []bool{true, false} {
		out = append(out, hotObs(up), calmObs(up), drainedObs(up),
			tickObs(TickDerived, up), tickObs(TickAdjust, up), tickObs(TickNone, up))
	}
	return out
}

// TestFSMRejectsIllegalTransitions feeds a long seeded mix of every kind
// of observation and checks each move is a legal edge out of the state
// the policy was in.
func TestFSMRejectsIllegalTransitions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	obs := probes()
	p := testPolicy()
	seen := map[[2]FSMState]bool{}
	for i := 0; i < 20000; i++ {
		o := obs[rng.Intn(len(obs))]
		if rng.Intn(4) > 0 { // runs of one observation reach the slow edges
			for j := rng.Intn(30); j > 0; j-- {
				p.Step(o)
			}
		}
		from := p.State()
		for _, tr := range p.Step(o).Transitions {
			if tr.From != from || !slices.Contains(legalEdges[tr.From], tr.To) {
				t.Fatalf("step %d: illegal move %v -> %v (policy was in %v)", i, tr.From, tr.To, from)
			}
			seen[[2]FSMState{tr.From, tr.To}] = true
			from = tr.To
		}
	}
	if len(seen) != 8 {
		t.Errorf("the mix exercised %d of the 8 legal edges: %v", len(seen), seen)
	}
}

// TestFSMTransitionMatrix pins the full relation: from every state,
// repeating each kind of observation reaches exactly that state's legal
// edges and no other.
func TestFSMTransitionMatrix(t *testing.T) {
	all := []FSMState{StateIdle, StateInit, StateDefense, StateFinish, StateDegraded}
	for _, from := range all {
		exits := map[FSMState]bool{}
		for _, o := range probes() {
			p := policyIn(t, from)
			if trs := repeat(p, o, 100); len(trs) > 0 {
				exits[trs[0].To] = true
			}
		}
		for _, to := range all {
			if legal := slices.Contains(legalEdges[from], to); legal != exits[to] {
				t.Errorf("%v -> %v: legal=%v, reached=%v", from, to, legal, exits[to])
			}
		}
	}
}

func TestFSMStateStrings(t *testing.T) {
	names := map[FSMState]string{
		StateIdle: "idle", StateInit: "init",
		StateDefense: "defense", StateFinish: "finish",
		StateDegraded: "degraded",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestUpdateStrategyStrings(t *testing.T) {
	if UpdateEveryChange.String() != "every-change" ||
		UpdateEveryN.String() != "every-n" {
		t.Error("strategy names wrong")
	}
}

func TestGuardScoreEdgeCases(t *testing.T) {
	base := DetectionConfig{
		RateThresholdPPS:     100,
		UtilizationThreshold: 0.5,
	}
	cases := []struct {
		name        string
		det         DetectionConfig
		ratePPS     float64
		bufferFracs []float64
		backlog     time.Duration
		want        float64
	}{
		{
			name:    "rate component alone",
			det:     base,
			ratePPS: 250,
			want:    2.5,
		},
		{
			name:        "zero rate threshold disables rate component",
			det:         DetectionConfig{RateThresholdPPS: 0, UtilizationThreshold: 0.5},
			ratePPS:     1e9,
			bufferFracs: []float64{0},
			want:        0,
		},
		{
			name:        "zero utilization threshold disables util component",
			det:         DetectionConfig{RateThresholdPPS: 100, UtilizationThreshold: 0},
			ratePPS:     50,
			bufferFracs: []float64{1.0},
			want:        0.5,
		},
		{
			name:        "both thresholds zero yields zero score",
			det:         DetectionConfig{},
			ratePPS:     1e9,
			bufferFracs: []float64{1.0},
			want:        0,
		},
		{
			name:        "NaN rate treated as zero",
			det:         base,
			ratePPS:     math.NaN(),
			bufferFracs: []float64{0.4},
			want:        0.8,
		},
		{
			name:        "negative rate treated as zero",
			det:         base,
			ratePPS:     -42,
			bufferFracs: []float64{0.4},
			want:        0.8,
		},
		{
			name:        "NaN buffer fraction skipped",
			det:         base,
			ratePPS:     50,
			bufferFracs: []float64{math.NaN()},
			want:        0.5,
		},
		{
			name:        "simultaneous overload takes the max (rate wins)",
			det:         base,
			ratePPS:     300,
			bufferFracs: []float64{1.0},
			want:        3,
		},
		{
			name:        "simultaneous overload takes the max (util wins)",
			det:         base,
			ratePPS:     120,
			bufferFracs: []float64{0.9},
			want:        1.8,
		},
		{
			name:        "worst switch buffer dominates",
			det:         base,
			ratePPS:     0,
			bufferFracs: []float64{0.2, 0.8, math.NaN()},
			want:        1.6,
		},
		{
			name: "backlog reference set but controller idle",
			det: DetectionConfig{
				RateThresholdPPS:     100,
				UtilizationThreshold: 0.5,
				BacklogReference:     100 * time.Millisecond,
			},
			ratePPS: 50,
			want:    0.5,
		},
		{
			name: "backlog above the buffer fraction",
			det: DetectionConfig{
				RateThresholdPPS:     100,
				UtilizationThreshold: 0.5,
				BacklogReference:     100 * time.Millisecond,
			},
			ratePPS:     50,
			bufferFracs: []float64{0.3},
			backlog:     60 * time.Millisecond,
			want:        1.2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			switches := map[uint64]*protectedSwitch{}
			for i, f := range tc.bufferFracs {
				switches[uint64(i+1)] = &protectedSwitch{bufferFrac: f}
			}
			p := NewPolicy(tc.det, DefaultRateLimit())
			got := p.scoreOf(tc.ratePPS, worstBufferFrac(switches), tc.backlog)
			if math.IsNaN(got) || math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("score(%v) = %v, want %v", tc.ratePPS, got, tc.want)
			}
		})
	}
}

// TestPolicyDetectorWindows: detection needs TriggerSamples consecutive
// hot windows, and Defense ends after QuietPeriod of calm windows,
// rounded up to whole windows.
func TestPolicyDetectorWindows(t *testing.T) {
	det := DefaultDetection()
	det.QuietPeriod = 120 * time.Millisecond // 2.4 windows: three calm ones
	det.TriggerSamples = 3
	p := NewPolicy(det, DefaultRateLimit())
	// 80 pps windows sit just over the 60 pps threshold, so one empty
	// window drags the EWMA under it and breaks the run.
	warm := Observation{Tick: TickSample, PacketIns: 4, Reachable: true}
	for _, o := range []Observation{warm, warm, calmObs(true), warm, warm} {
		p.Step(o)
	}
	if p.State() != StateIdle {
		t.Fatalf("state = %v after a broken run of hot windows, want idle", p.State())
	}
	p.Step(warm)
	p.Step(tickObs(TickDerived, true))
	if p.State() != StateDefense {
		t.Fatalf("state = %v, want defense", p.State())
	}
	for i := 1; i <= 3; i++ {
		p.Step(calmObs(true))
		if want := i == 3; (p.State() == StateFinish) != want {
			t.Fatalf("after %d calm windows state = %v", i, p.State())
		}
	}
}

// TestPolicyAttackOverSignals: in Defense the caches absorbing a flood
// keep the attack on even when packet_ins are calm; in Degraded,
// migration is withdrawn, so only the score counts.
func TestPolicyAttackOverSignals(t *testing.T) {
	p := policyIn(t, StateDefense)
	o := calmObs(true)
	absorb := func(up bool) {
		o.Reachable = up
		o.Enqueued += 100 // 2 000 pps into the caches
		p.Step(o)
	}
	for i := 0; i < 100; i++ {
		absorb(true)
	}
	if p.State() != StateDefense {
		t.Fatalf("state = %v with the caches absorbing a flood, want defense", p.State())
	}
	absorb(false)
	for i := 0; i < 100 && p.State() == StateDegraded; i++ {
		absorb(false)
	}
	if p.State() != StateFinish {
		t.Fatalf("state = %v after calm degraded windows, want finish", p.State())
	}
}

// TestPolicyReplayRate: the replay rate starts at the floor on
// detection, follows AIMD on adjust ticks, parks while the sideband is
// down, and restarts at the floor when it heals.
func TestPolicyReplayRate(t *testing.T) {
	rl := DefaultRateLimit()
	p := policyIn(t, StateDefense)
	adjust := func(backlog time.Duration, up bool) float64 {
		return p.Step(Observation{Tick: TickAdjust, Backlog: backlog, Reachable: up}).Rate
	}
	if got := adjust(0, true); got != rl.MinPPS*rateGrowth {
		t.Errorf("headroom: rate %v, want %v", got, rl.MinPPS*rateGrowth)
	}
	if got := adjust(targetBacklog*3/4, true); got != rl.MinPPS*rateGrowth {
		t.Errorf("between half and full target: rate %v, want it held", got)
	}
	for i := 0; i < 40; i++ {
		adjust(0, true)
	}
	if got := adjust(0, true); got != rl.MaxPPS {
		t.Errorf("sustained headroom: rate %v, want the %v ceiling", got, rl.MaxPPS)
	}
	if got := adjust(2*targetBacklog, true); got != rl.MaxPPS/2 {
		t.Errorf("backlog over target: rate %v, want halved to %v", got, rl.MaxPPS/2)
	}
	if got := adjust(0, false); got != 0 || p.State() != StateDegraded {
		t.Errorf("sideband down: rate %v in %v, want 0 in degraded", got, p.State())
	}
	if got := adjust(0, true); got != rl.MinPPS || p.State() != StateDefense {
		t.Errorf("healed: rate %v in %v, want the %v floor in defense", got, p.State(), rl.MinPPS)
	}
}

// TestPolicyHealDuringInitMigrates: detection with the sideband down
// migrates nothing; a heal before the rules are derived arms migration
// and replay at once.
func TestPolicyHealDuringInitMigrates(t *testing.T) {
	p := testPolicy()
	repeat(p, hotObs(false), 10)
	d := p.Step(tickObs(TickNone, false))
	if p.State() != StateInit || migrating(t, p) || d.Rate != 0 {
		t.Fatalf("detected with the sideband down: state %v, decisions %+v", p.State(), d)
	}
	if d = p.Step(tickObs(TickNone, true)); !slices.Equal(d.Moves, divertAll) || d.Rate != DefaultRateLimit().MinPPS {
		t.Fatalf("healed in init: decisions %+v; want migrating at the floor rate", d)
	}
	if d = p.Step(tickObs(TickDerived, true)); p.State() != StateDefense || !migrating(t, p) {
		t.Fatalf("derived: state %v, decisions %+v", p.State(), d)
	}
}

// TestPolicyBlanketMigration: a blanket shell supplies every port of two
// datapaths as suspect. Detection diverts all of them in one step, in
// (datapath, port) order; Degraded withdraws them, the heal re-diverts
// them, and Finish withdraws them again.
func TestPolicyBlanketMigration(t *testing.T) {
	all := []attrib.Verdict{
		{DPID: 1, Port: 1, Suspect: true}, {DPID: 1, Port: 4, Suspect: true},
		{DPID: 7, Port: 2, Suspect: true}, {DPID: 7, Port: 3, Suspect: true},
	}
	moves := func(on bool) []PortMove {
		out := make([]PortMove, len(all))
		for i, v := range all {
			out[i] = PortMove{DPID: v.DPID, Port: v.Port, Divert: on}
		}
		return out
	}
	obs := func(o Observation) Observation { o.Verdicts = all; return o }
	p := testPolicy()
	check := func(what string, o Observation, want FSMState, moves []PortMove) {
		t.Helper()
		var got []PortMove
		for i := 0; i < 100 && (i == 0 || p.State() != want); i++ {
			got = append(got, p.Step(obs(o)).Moves...)
		}
		if p.State() != want || !slices.Equal(got, moves) {
			t.Fatalf("%s: state %v, moves %+v; want %v, %+v", what, p.State(), got, want, moves)
		}
	}
	check("detection", hotObs(true), StateInit, moves(true))
	check("derived", tickObs(TickDerived, true), StateDefense, nil)
	check("sideband lost", tickObs(TickNone, false), StateDegraded, moves(false))
	check("sideband healed", tickObs(TickNone, true), StateDefense, moves(true))
	check("attack over", calmObs(true), StateFinish, moves(false))
}

// verdicts builds one window's verdicts for datapath 1: ports 1..n with
// the given blame scores (>= 1 means blamed) and window rates.
func verdicts(blame []float64, rate []float64) []attrib.Verdict {
	out := make([]attrib.Verdict, len(blame))
	for i := range blame {
		out[i] = attrib.Verdict{DPID: 1, Port: uint16(i + 1), Blame: blame[i], RatePPS: rate[i], Suspect: blame[i] >= 1}
	}
	return out
}

func TestPolicySelectiveMigration(t *testing.T) {
	quiet := verdicts([]float64{0, 0, 0}, []float64{5, 5, 5})
	loud3 := verdicts([]float64{0, 0.2, 0.6}, []float64{5, 40, 90})
	tied := verdicts([]float64{0.5, 0, 0.5}, []float64{80, 5, 80})
	blame3 := verdicts([]float64{0, 0, 1.4}, []float64{5, 5, 200})
	blame2 := verdicts([]float64{0, 1.2, 0.6}, []float64{5, 150, 90})
	blame23 := verdicts([]float64{0, 1.2, 1.4}, []float64{5, 150, 200})
	mv := func(port uint16, on bool) PortMove { return PortMove{DPID: 1, Port: port, Divert: on} }
	type step struct {
		o     Observation
		moves []PortMove
	}
	sample := func(up bool, vs []attrib.Verdict) Observation {
		o := hotObs(up)
		o.Verdicts = vs
		return o
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"no migration while idle", []step{
			{sample(true, blame3), nil},
		}},
		{"detection with a blamed port diverts only it", []step{
			{sample(true, blame3), nil},
			{sample(true, blame3), []PortMove{mv(3, true)}},
		}},
		{"detection before blame diverts the loudest port", []step{
			{sample(true, loud3), nil},
			{sample(true, loud3), []PortMove{mv(3, true)}},
			{sample(true, loud3), nil},
		}},
		{"fallback ties break on rate, then the lower port", []step{
			{sample(true, tied), nil},
			{sample(true, tied), []PortMove{mv(1, true)}},
		}},
		{"a real verdict elsewhere retires the fallback, in port order", []step{
			{sample(true, loud3), nil},
			{sample(true, loud3), []PortMove{mv(3, true)}},
			{sample(true, blame2), []PortMove{mv(2, true), mv(3, false)}},
		}},
		{"the fallback port earning blame keeps it", []step{
			{sample(true, loud3), nil},
			{sample(true, loud3), []PortMove{mv(3, true)}},
			{sample(true, blame3), nil},
			{sample(true, quiet), []PortMove{mv(3, false)}},
		}},
		{"new blame extends, heal withdraws", []step{
			{sample(true, blame3), nil},
			{sample(true, blame3), []PortMove{mv(3, true)}},
			{sample(true, blame23), []PortMove{mv(2, true)}},
			{sample(true, blame2), []PortMove{mv(3, false)}},
		}},
		{"degraded withdraws, heal re-arms with a fresh fallback", []step{
			{sample(true, blame23), nil},
			{sample(true, blame23), []PortMove{mv(2, true), mv(3, true)}},
			{Observation{Tick: TickDerived, Reachable: true, Verdicts: blame23}, nil},
			{Observation{Tick: TickNone, Reachable: false, Verdicts: blame23}, []PortMove{mv(2, false), mv(3, false)}},
			{sample(false, loud3), nil},
			{Observation{Tick: TickNone, Reachable: true, Verdicts: loud3}, []PortMove{mv(3, true)}},
		}},
		{"a port leaving the verdicts is withdrawn", []step{
			{sample(true, blame23), nil},
			{sample(true, blame23), []PortMove{mv(2, true), mv(3, true)}},
			{Observation{Tick: TickNone, Reachable: true, Verdicts: blame23[:2]}, []PortMove{mv(3, false)}},
		}},
		{"detection with the sideband down diverts nothing", []step{
			{sample(false, blame3), nil},
			{sample(false, blame3), nil},
			{Observation{Tick: TickNone, Reachable: true, Verdicts: blame3}, []PortMove{mv(3, true)}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testPolicy()
			for i, s := range tc.steps {
				if got := p.Step(s.o).Moves; !slices.Equal(got, s.moves) {
					t.Fatalf("step %d (%v): moves %+v, want %+v", i, p.State(), got, s.moves)
				}
			}
		})
	}
}

// TestPolicySteadyDefenseStepAllocatesNothing: a Defense step with
// selective verdicts, on every tick kind, reuses the policy's buffers.
func TestPolicySteadyDefenseStepAllocatesNothing(t *testing.T) {
	p := policyIn(t, StateDefense)
	vs := verdicts([]float64{0, 1.2, 1.4, 0}, []float64{5, 150, 200, 5})
	obs := []Observation{hotObs(true), tickObs(TickAdjust, true), tickObs(TickNone, true)}
	for i := range obs {
		obs[i].Verdicts = vs
		p.Step(obs[i])
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, o := range obs {
			p.Step(o)
		}
	})
	if p.State() != StateDefense {
		t.Fatalf("state = %v, want defense", p.State())
	}
	if allocs != 0 {
		t.Errorf("steady Defense step allocates %v times, want 0", allocs)
	}
}
