package symexec

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// deltaSubject is one program under the memo-vs-Algorithm-2 comparison:
// its paths, a live state, and the globals a mutation may pick from.
type deltaSubject struct {
	name    string
	paths   []Path
	st      *appir.State
	globals []appir.GlobalDecl
}

// crossReads is a handler built from the shapes the memo must refuse or
// must treat with care, each arranged so that getting it wrong shows: a
// rule group whose action is the table's entry at a *constant* source
// MAC (so one Learn rewrites every group), a group gated on that
// constant's absence, a product of two fan-outs and a prefix fan-out
// ahead of the table's (both emitted outer-fan-out-major, not per key),
// and an entry-shaped path that also reads a scalar.
func crossReads() (*appir.Program, *appir.State) {
	pinned := appir.MACValue(netpkt.MAC{0, 0, 0, 0, 0, 3}) // inside deltaValue's domain
	dst, src := appir.FEthDst, appir.FEthSrc
	install := func(port appir.Expr) []appir.Stmt {
		return []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
			Match:    []appir.MatchField{{F: dst, Val: appir.FieldRef{F: dst}}},
			Priority: 10,
			Actions:  []appir.ActionTemplate{appir.ActOutput{Port: port}},
		}}}
	}
	drop := []appir.Stmt{appir.Drop{}}
	section := func(ethType uint16, body appir.Stmt, rest []appir.Stmt) []appir.Stmt {
		return []appir.Stmt{appir.If{
			Cond: appir.FieldEq(appir.FEthType, appir.U16Value(ethType)),
			Then: []appir.Stmt{body},
			Else: rest,
		}}
	}
	handler := section(1, appir.If{
		Cond: appir.And{A: appir.FieldEq(src, pinned), B: appir.FieldIn(dst, "xt")},
		Then: []appir.Stmt{appir.If{
			Cond: appir.FieldIn(src, "xt"),
			Then: install(appir.FieldLookup(src, "xt")),
			Else: install(appir.FieldLookup(dst, "xt")),
		}},
		Else: drop,
	}, section(2, appir.If{
		Cond: appir.And{A: appir.FieldIn(dst, "xt"), B: appir.FieldIn(src, "xu")},
		Then: install(appir.FieldLookup(src, "xu")),
		Else: drop,
	}, section(netpkt.EtherTypeIPv4, appir.If{
		Cond: appir.And{A: appir.FieldInPrefixes(appir.FNwDst, "xp"), B: appir.FieldIn(dst, "xt")},
		Then: install(appir.FieldLookup(dst, "xt")),
		Else: drop,
	}, section(4, appir.If{
		Cond: appir.FieldIn(dst, "xt"),
		Then: install(appir.ScalarRef{Name: "xs"}),
		Else: drop,
	}, drop))))
	st := appir.NewState()
	st.SetScalar("xs", appir.U16Value(1))
	return &appir.Program{
		Name: "cross_reads",
		Globals: []appir.GlobalDecl{
			{Name: "xt", Kind: appir.GlobalTable, KeyKind: appir.KindMAC, ValKind: appir.KindU16},
			{Name: "xu", Kind: appir.GlobalTable, KeyKind: appir.KindMAC, ValKind: appir.KindU16},
			{Name: "xp", Kind: appir.GlobalPrefixTable, ValKind: appir.KindU16},
			{Name: "xs", Kind: appir.GlobalScalar, ValKind: appir.KindU16},
		},
		Handler: handler,
	}, st
}

// deltaSubjects returns the evaluation apps, crossReads, and one handler
// generated from prog (the FuzzExplore grammar), so the shapes the memo
// must refuse are driven as hard as the ones it accepts.
func deltaSubjects(t testing.TB, prog []byte) []deltaSubject {
	var out []deltaSubject
	progs, states := apps.EvaluationSet()
	cross, crossState := crossReads()
	progs, states = append(progs, cross), append(states, crossState)
	for i, p := range progs {
		paths, err := Explore(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		out = append(out, deltaSubject{name: p.Name, paths: paths, st: states[i], globals: p.Globals})
	}
	return append(out, generatedSubject(prog)...)
}

// generatedSubject returns the handler generated from prog (the
// FuzzExplore grammar) over fuzzState, or nothing when its exploration
// explodes, which is a legal outcome.
func generatedSubject(prog []byte) []deltaSubject {
	g := &fuzzGen{data: prog, budget: 60}
	gen := &appir.Program{Name: "generated", Handler: g.stmts(3)}
	paths, err := Explore(gen)
	if err != nil {
		return nil
	}
	return []deltaSubject{{name: gen.Name, paths: paths, st: fuzzState(), globals: []appir.GlobalDecl{
		{Name: fuzzTables[0], Kind: appir.GlobalTable, KeyKind: appir.KindMAC, ValKind: appir.KindU16},
		{Name: fuzzTables[1], Kind: appir.GlobalTable, KeyKind: appir.KindMAC, ValKind: appir.KindU16},
		{Name: "fzp", Kind: appir.GlobalPrefixTable, ValKind: appir.KindU16},
		{Name: "fs0", Kind: appir.GlobalScalar, ValKind: appir.KindU16},
	}}}
}

// deltaValue draws a value of the given kind from a domain of 16, small
// enough that re-learns, unlearns and removals keep hitting live entries.
func deltaValue(k appir.Kind, b byte) appir.Value {
	b %= 16
	switch k {
	case appir.KindMAC:
		return appir.MACValue(netpkt.MAC{0, 0, 0, 0, 0, b})
	case appir.KindIP:
		return appir.IPValue(netpkt.IPv4(uint32(b&1)<<31 | 10<<16 | uint32(b)))
	case appir.KindU8:
		return appir.U8Value(b)
	case appir.KindBool:
		return appir.BoolValue(b&1 == 1)
	default:
		return appir.U16Value(uint16(b))
	}
}

// deltaBurst is how many keys a burst step writes: more than the state's
// change journal holds, so the next derivation must notice the gap and
// re-solve the table whole (the test checks that it overflowed). Only a
// subject's first global takes bursts, which keeps crossReads' product
// of two tables small.
const deltaBurst = 70

// mutate applies one decoded mutation to the subject's state, and one
// time in four a second one, so that two globals can be stale at once.
func (s *deltaSubject) mutate(t testing.TB, next func() byte) {
	if len(s.globals) == 0 {
		return
	}
	sel := next()
	if sel>>6 == 3 {
		defer s.mutate(t, next)
	}
	g := s.globals[int(sel)%len(s.globals)]
	op, k, v := next(), next(), next()
	switch g.Kind {
	case appir.GlobalScalar:
		s.st.SetScalar(g.Name, deltaValue(g.ValKind, v))
	case appir.GlobalPrefixTable:
		prefix, length := appir.IPValue(netpkt.IPv4(uint32(k&3)<<30)), int(k>>2)%3+1
		if op%3 == 0 {
			s.st.RemovePrefix(g.Name, prefix, length)
		} else {
			s.st.AddPrefix(g.Name, prefix, length, deltaValue(g.ValKind, v))
		}
	case appir.GlobalTable:
		switch op %= 8; {
		case op < 2:
			s.st.Unlearn(g.Name, deltaValue(g.KeyKind, k))
		case op == 2 && g.Name == s.globals[0].Name:
			since := s.st.GlobalVersion(g.Name)
			for i := 0; i < deltaBurst; i++ {
				key := deltaValue(g.KeyKind, 0)
				key.Bits += 1<<12 + uint64(i) // off the small domain
				s.st.Learn(g.Name, key, deltaValue(g.ValKind, v+byte(i)))
			}
			wrote := s.st.GlobalVersion(g.Name) - since // fewer when it repeats an earlier burst
			if _, ok := s.st.TableChanges(g.Name, since, nil); ok && wrote == deltaBurst {
				t.Fatalf("a burst of %d learns did not overflow %s's journal", deltaBurst, g.Name)
			}
		default: // learn, or re-learn with a (probably) new value
			s.st.Learn(g.Name, deltaValue(g.KeyKind, k), deltaValue(g.ValKind, v))
		}
	}
}

// ruleCounts is a derived rule set as a multiset.
type ruleCounts map[ruleKey]int

type ruleKey struct {
	path       int
	match      openflow.Match
	prio, idle uint16
	hard       uint16
	actions    string
}

func keyOf(r ProactiveRule) ruleKey {
	return ruleKey{r.PathID, r.Rule.Match, r.Rule.Priority, r.Rule.IdleTimeout, r.Rule.HardTimeout, openflow.ActionsString(r.Rule.Actions)}
}

// apply folds one DeriveDelta result in, failing on a removal of a rule
// the set does not hold.
func (c ruleCounts) apply(t testing.TB, what string, removed, added []ProactiveRule) {
	t.Helper()
	for _, r := range removed {
		k := keyOf(r)
		if c[k] == 0 {
			t.Fatalf("%s: delta removes %+v, which it never added", what, k)
		}
		if c[k]--; c[k] == 0 {
			delete(c, k)
		}
	}
	for _, r := range added {
		c[keyOf(r)]++
	}
}

func (c ruleCounts) equal(rules []ProactiveRule) bool {
	want := make(ruleCounts, len(rules))
	for _, r := range rules {
		want[keyOf(r)]++
	}
	return maps.Equal(want, c)
}

// runMemoDelta drives one mutation per step into one of the subjects and,
// after each, holds DeriveRules and its memo to the whole solve: same
// rules, same order. A second memo per subject reports through DeriveDelta only; the
// deltas summed up must be the same rule set (a failed step's partial
// delta included). It returns how many entries the memos re-solved one
// by one.
func runMemoDelta(t testing.TB, prog, script []byte) (entries uint64) {
	pos := 0
	next := func() byte {
		if pos >= len(script) {
			return 0
		}
		pos++
		return script[pos-1]
	}
	subjects := deltaSubjects(t, prog)
	memos := make([]*Memo, len(subjects))
	deltas := make([]*Memo, len(subjects))
	sums := make([]ruleCounts, len(subjects))
	for i := range subjects {
		memos[i] = NewMemo(subjects[i].paths)
		deltas[i] = NewMemo(subjects[i].paths)
		sums[i] = ruleCounts{}
	}
	for step := 0; step < len(subjects) || pos < len(script); step++ {
		// The first pass derives every subject cold; from then on each step
		// mutates one subject and re-derives it.
		i := step
		if step >= len(subjects) {
			i = int(next()) % len(subjects)
			subjects[i].mutate(t, next)
		}
		s := &subjects[i]
		want, wantErr := wholeSolve(s.paths, s.st)
		direct, directErr := DeriveRules(s.paths, s.st)
		sameDerive(t, fmt.Sprintf("%s step %d: DeriveRules", s.name, step), direct, directErr, want, wantErr)
		got, gotErr := memos[i].Derive(s.st, DeriveOptions{})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s step %d: direct err %v, memo err %v", s.name, step, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s step %d: memo diverges from Algorithm 2 (%d vs %d rules)\n got %v\nwant %v",
				s.name, step, len(got), len(want), got, want)
		}
		removed, added, deltaErr := deltas[i].DeriveDelta(s.st, DeriveOptions{})
		if (wantErr == nil) != (deltaErr == nil) {
			t.Fatalf("%s step %d: direct err %v, delta err %v", s.name, step, wantErr, deltaErr)
		}
		sums[i].apply(t, fmt.Sprintf("%s step %d", s.name, step), removed, added)
		if wantErr == nil && !sums[i].equal(want) {
			t.Fatalf("%s step %d: summed deltas diverge from Algorithm 2 (%d rules)", s.name, step, len(want))
		}
	}
	for _, m := range memos {
		entries += m.EntriesResolved()
	}
	return entries
}

// Seeded sequences of Learn / re-Learn / Unlearn / SetScalar / AddPrefix /
// RemovePrefix and over-journal bursts: the memo's output must be
// Algorithm 2's after every single step, and the entry-granular path
// must actually have carried some of them.
func TestMemoDeltaMatchesAlgorithm2(t *testing.T) {
	rng := rand.New(rand.NewSource(0xF100D))
	var entries uint64
	for round := 0; round < 12; round++ {
		prog, script := make([]byte, 48), make([]byte, 1500)
		rng.Read(prog)
		rng.Read(script)
		entries += runMemoDelta(t, prog, script)
	}
	if entries == 0 {
		t.Error("no step was served entry by entry: the delta path went untested")
	}
}

// FuzzMemoDelta is the same comparison under coverage guidance: the first
// input is the generated handler, the second the mutation script.
func FuzzMemoDelta(f *testing.F) {
	f.Add([]byte{}, []byte{0, 3, 1, 1, 0, 0, 1, 0, 0, 3, 1, 2})
	f.Add([]byte{0, 2, 1, 0, 1, 2, 1, 0, 1, 2, 0}, []byte{0, 3, 1, 2, 1, 2, 0, 0, 0, 0, 1, 0, 2, 5, 5, 5})
	f.Add([]byte{0, 0, 7, 1, 2, 0, 6, 3, 0, 1, 4, 5, 0, 2, 2, 1}, []byte{3, 1, 1, 1, 2, 1, 4, 4, 0, 2, 9, 9, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, prog, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		runMemoDelta(t, prog, script)
	})
}

// The shape test is the memo's soundness boundary: a path qualifies only
// when nothing it reads of the fan-out table lies outside the entry at
// the fan-out field.
func TestEntryShape(t *testing.T) {
	in := func(f appir.Field, table string, want bool) appir.Cond {
		return appir.Cond{Expr: appir.FieldIn(f, table), Want: want}
	}
	install := func(f appir.Field, port appir.Expr) []appir.RuleTemplate {
		return []appir.RuleTemplate{{
			Match:    []appir.MatchField{{F: f, Val: appir.FieldRef{F: f}}},
			Priority: 10,
			Actions:  []appir.ActionTemplate{appir.ActOutput{Port: port}},
		}}
	}
	dst, src := appir.FEthDst, appir.FEthSrc
	cases := []struct {
		name string
		path Path
		ok   bool
	}{
		{"l2 install path", Path{Conds: []appir.Cond{in(dst, "t", true)}, Installs: install(dst, appir.FieldLookup(dst, "t"))}, true},
		{"negated membership on the same field", Path{Conds: []appir.Cond{in(dst, "t", true), in(dst, "t", false)}, Installs: install(dst, appir.Const{})}, true},
		{"reads of another table anywhere", Path{Conds: []appir.Cond{in(dst, "t", true), in(src, "u", false)}, Installs: install(dst, appir.FieldLookup(src, "u"))}, true},
		{"no install", Path{Conds: []appir.Cond{in(dst, "t", true)}}, false},
		{"no fan-out", Path{Conds: []appir.Cond{in(dst, "t", false)}, Installs: install(dst, appir.Const{})}, false},
		{"two fan-outs", Path{Conds: []appir.Cond{in(dst, "t", true), in(src, "u", true)}, Installs: install(dst, appir.Const{})}, false},
		{"prefix fan-out", Path{Conds: []appir.Cond{in(dst, "t", true), {Expr: appir.FieldInPrefixes(appir.FNwDst, "p"), Want: true}}, Installs: install(dst, appir.Const{})}, false},
		{"negated membership on another field", Path{Conds: []appir.Cond{in(dst, "t", true), in(src, "t", false)}, Installs: install(dst, appir.Const{})}, false},
		{"lookup keyed by another field", Path{Conds: []appir.Cond{in(dst, "t", true)}, Installs: install(dst, appir.FieldLookup(src, "t"))}, false},
		{"lookup at a constant key", Path{Conds: []appir.Cond{in(dst, "t", true)}, Installs: install(dst, appir.Lookup{Table: "t", Key: appir.Const{}})}, false},
		{"same name read as a prefix table", Path{Conds: []appir.Cond{in(dst, "t", true)}, Installs: install(dst, appir.FieldLookupPrefix(appir.FNwDst, "t"))}, false},
	}
	for _, c := range cases {
		table, f, ok := entryShape(&c.path)
		if ok != c.ok || (ok && (table != "t" || f != dst)) {
			t.Errorf("%s: entryShape = (%q, %v, %v), want ok=%v on (t, eth_dst)", c.name, table, f, ok, c.ok)
		}
	}
}

// One refresh re-solves many stale entry-shaped paths entry by entry,
// each updating only its own slot.
func TestMemoDeltaOnWorkerPool(t *testing.T) {
	paths, st := genPaths(64, 4, 32) // 16 entry-shaped paths per table
	m := NewMemo(paths)
	if _, err := m.Derive(st, DeriveOptions{}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		st.Learn("taa", appir.MACValue(netpkt.MAC{9, 9, 9, 9, 9, byte(round)}), appir.U16Value(7))
		st.Unlearn("tba", appir.MACValue(netpkt.MAC{0, 1, 0, 0, 0, byte(round)}))
		got, err := m.Derive(st, DeriveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := DeriveRules(paths, st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: delta derive diverges (%d vs %d rules)", round, len(got), len(want))
		}
	}
	if got, want := m.EntriesResolved(), uint64(3*2*16); got != want {
		t.Errorf("EntriesResolved = %d, want %d (one entry, two tables, 16 paths each, three rounds)", got, want)
	}
}
