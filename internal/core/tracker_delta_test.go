package core

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/symexec"
)

// flakyTarget logs every flow_mod offered to it and refuses the next
// refuse of them.
type flakyTarget struct {
	refuse int
	log    []openflow.FlowMod
}

var errRefused = errors.New("refused")

func (f *flakyTarget) InstallProactive(fm openflow.FlowMod) error {
	f.log = append(f.log, fm)
	if f.refuse > 0 {
		f.refuse--
		return errRefused
	}
	return nil
}

// trackerRef is the tracker the delta analyzer replaced: every sync
// derives each app scope cold (DeriveRules over the live state),
// rebuilds the whole desired map first-in-derivation-order-wins, and
// diffs it against its own installed set.
type trackerRef struct {
	apps      []*controller.App
	paths     [][]symexec.Path
	installed map[ruleID]openflow.FlowMod
	rejected  int
}

func (r *trackerRef) sync(scoped map[uint64]RuleTarget) (inst, rem int, err error) {
	next := make(map[ruleID]openflow.FlowMod)
	for i, app := range r.apps {
		scopes := []controller.DatapathState{{DPID: sharedScope, State: app.State}}
		if app.PerDatapath {
			scopes = app.DatapathStates()
		}
		for _, sc := range scopes {
			rules, err := symexec.DeriveRules(r.paths[i], sc.State)
			if err != nil {
				return 0, 0, err
			}
			for _, pr := range rules {
				rule := pr.Rule
				id := ruleID{scope: sc.DPID, match: rule.Match.Normalized(), priority: rule.Priority}
				if _, dup := next[id]; dup {
					continue
				}
				next[id] = openflow.FlowMod{
					Match: rule.Match, Command: openflow.FlowAdd,
					IdleTimeout: rule.IdleTimeout, HardTimeout: rule.HardTimeout,
					Priority: rule.Priority, BufferID: openflow.NoBuffer,
					OutPort: openflow.PortNone, Actions: rule.Actions,
				}
			}
		}
	}
	var stale, fresh []ruleID
	for id := range r.installed {
		if _, keep := next[id]; !keep {
			stale = append(stale, id)
		}
	}
	for id, fm := range next {
		if old, ok := r.installed[id]; !ok || !slices.Equal(old.Actions, fm.Actions) {
			fresh = append(fresh, id)
		}
	}
	slices.SortFunc(stale, ruleID.compare)
	slices.SortFunc(fresh, ruleID.compare)
	for _, id := range stale {
		del := r.installed[id]
		del.Command = openflow.FlowDeleteStrict
		if offer(id.scope, del, scoped, nil) != nil {
			r.rejected++
			continue
		}
		delete(r.installed, id)
		rem++
	}
	for _, id := range fresh {
		if offer(id.scope, next[id], scoped, nil) != nil {
			r.rejected++
			continue
		}
		r.installed[id] = next[id]
		inst++
	}
	return inst, rem, nil
}

// trackerSide is one analyzer under test with its own apps and targets.
type trackerSide struct {
	apps    []*controller.App
	targets map[uint64]RuleTarget
	flaky   []*flakyTarget
}

// trackerApps builds the differential's app set: l2_learning,
// l3_learning, mac_blocker and of_firewall on shared state, a second
// l2_learning whose identities collide with the first's (the same MACs
// learned at other ports, so first-wins decides), and a per-datapath
// l2_learning on datapaths 1 and 2.
func trackerApps() []*controller.App {
	mk := func(prog *appir.Program, st *appir.State) *controller.App {
		return &controller.App{Prog: prog, State: st}
	}
	out := []*controller.App{
		mk(apps.L2Learning()), mk(apps.L3Learning()), mk(apps.MACBlocker()),
		mk(apps.OFFirewall()), mk(apps.L2Learning()), mk(apps.L2Learning()),
	}
	out[5].PerDatapath = true
	out[5].StateFor(1)
	out[5].StateFor(2)
	return out
}

// trackerValue draws a value of the given kind from a domain of 8.
func trackerValue(k appir.Kind, b byte) appir.Value {
	b %= 8
	switch k {
	case appir.KindMAC:
		return appir.MACValue(netpkt.MAC{0, 0, 0, 0, 0, b + 1})
	case appir.KindIP:
		return appir.IPValue(netpkt.IPv4(10<<24 | uint32(b)<<8))
	case appir.KindBool:
		return appir.BoolValue(b&1 == 0)
	default:
		return appir.U16Value(uint16(b) + 1)
	}
}

// mutateApp applies one decoded Learn / re-Learn / Unlearn (AddPrefix /
// RemovePrefix on prefix tables) to state st of app: sel's top bit
// picks removal, its middle bits the global.
func mutateApp(app *controller.App, st *appir.State, sel, k, v byte) {
	g := app.Prog.Globals[int(sel>>1&0x3f)%len(app.Prog.Globals)]
	switch g.Kind {
	case appir.GlobalPrefixTable:
		prefix, length := trackerValue(appir.KindIP, k), int(k>>3)%3*8+8
		if sel&0x80 != 0 {
			st.RemovePrefix(g.Name, prefix, length)
		} else {
			st.AddPrefix(g.Name, prefix, length, trackerValue(g.ValKind, v))
		}
	case appir.GlobalTable:
		if sel&0x80 != 0 {
			st.Unlearn(g.Name, trackerValue(g.KeyKind, k))
		} else {
			st.Learn(g.Name, trackerValue(g.KeyKind, k), trackerValue(g.ValKind, v))
		}
	}
}

// runTrackerDelta replays one script of Learn / Unlearn / Forget /
// refuse-next-N / sync steps against the delta analyzer and the cold
// reference, each with its own copy of the apps and targets, and
// requires after every sync: the same flow_mods offered to every target
// in the same order, the same installed set, the same rejection count.
// It reports whether any sync left an identity whose derived rules
// disagree (the rebuild path) and how many offers were refused.
func runTrackerDelta(t testing.TB, script []byte) (mixed bool, rejected uint64) {
	pos := 0
	next := func() byte {
		if pos >= len(script) {
			return 0
		}
		pos++
		return script[pos-1]
	}
	newSide := func() *trackerSide {
		s := &trackerSide{apps: trackerApps(), targets: make(map[uint64]RuleTarget)}
		for dp := uint64(1); dp <= 2; dp++ {
			f := &flakyTarget{}
			s.flaky = append(s.flaky, f)
			s.targets[dp] = f
		}
		return s
	}
	got, want := newSide(), newSide()
	an, err := NewAnalyzer(DefaultAnalyzer(), got.apps)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Prepare(); err != nil {
		t.Fatal(err)
	}
	ref := &trackerRef{apps: want.apps, installed: make(map[ruleID]openflow.FlowMod)}
	for _, app := range want.apps {
		ref.paths = append(ref.paths, an.Paths(app.Name()))
	}

	for step := 0; pos < len(script); step++ {
		op := next()
		switch op % 8 {
		case 0, 1, 2, 3: // mutate one app scope on both sides
			ai, sel, k, v := int(next())%len(got.apps), next(), next(), next()
			for _, s := range []*trackerSide{got, want} {
				app := s.apps[ai]
				st := app.State
				if app.PerDatapath {
					st = app.StateFor(uint64(sel&1) + 1)
				}
				mutateApp(app, st, sel, k, v)
			}
			if op&0x80 == 0 {
				continue // let changes pile up before the next sync
			}
		case 4: // a target refuses its next N offers
			i, n := int(next())%len(got.flaky), int(next()%6)
			got.flaky[i].refuse, want.flaky[i].refuse = n, n
		}
		gi, gr, gerr := an.SyncScoped(got.targets, nil)
		wi, wr, werr := ref.sync(want.targets)
		if (gerr == nil) != (werr == nil) || gi != wi || gr != wr {
			t.Fatalf("step %d: delta sync = (%d, %d, %v), reference (%d, %d, %v)", step, gi, gr, gerr, wi, wr, werr)
		}
		for i := range got.flaky {
			if !reflect.DeepEqual(got.flaky[i].log, want.flaky[i].log) {
				t.Fatalf("step %d: target %d was offered\n%v\nreference offered\n%v", step, i+1, got.flaky[i].log, want.flaky[i].log)
			}
		}
		if !reflect.DeepEqual(an.installed, ref.installed) {
			t.Fatalf("step %d: installed %d rules, reference %d", step, len(an.installed), len(ref.installed))
		}
		if got, want := an.RulesRejected.Value(), uint64(ref.rejected); got != want {
			t.Fatalf("step %d: RulesRejected = %d, reference %d", step, got, want)
		}
		for _, d := range an.desired {
			mixed = mixed || d.mixed
		}
	}
	return mixed, an.RulesRejected.Value()
}

// Seeded scripts through the delta tracker and the cold reference; they
// must reach both refusals and colliding identities.
func TestTrackerDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xF100D))
	var mixed bool
	var rejected uint64
	for round := 0; round < 6; round++ {
		script := make([]byte, 800)
		rng.Read(script)
		m, r := runTrackerDelta(t, script)
		mixed, rejected = mixed || m, rejected+r
	}
	if !mixed || rejected == 0 {
		t.Errorf("scripts never reached the rebuild path (%v) or a refusal (%d)", mixed, rejected)
	}
}

// FuzzTrackerDelta is the same comparison under coverage guidance.
func FuzzTrackerDelta(f *testing.F) {
	f.Add([]byte{0x80, 0, 0, 1, 1, 0x80, 4, 0, 1, 2, 5, 0, 2, 0x80, 0, 0, 1, 3, 4})
	f.Add([]byte{0x81, 5, 2, 3, 3, 0x80, 0, 0, 3, 5, 5, 1, 3, 0x82, 5, 3, 4, 4, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		runTrackerDelta(t, script)
	})
}
