package symexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/netpkt"
	"floodguard/internal/solver"
)

// wholeSolve is Algorithm 2 with nothing of the per-entry derivation in
// it: every install path goes through the whole enumeration, which reads
// each lookup from the state. It is the oracle DeriveRules and the
// memo are held to.
func wholeSolve(paths []Path, st *appir.State) ([]ProactiveRule, error) {
	ar := solver.NewArena()
	var out []ProactiveRule
	for i := range paths {
		p := &paths[i]
		if len(p.Installs) == 0 {
			continue
		}
		rules, err := instantiate(p, solver.ConcretizeArena(p.Conds, st, ar), st)
		if err != nil {
			return nil, err
		}
		out = append(out, rules...)
	}
	return out, nil
}

// entrySubjects returns all seven bundled apps, crossReads and the
// handler generated from prog, each with its paths and a live state.
func entrySubjects(t testing.TB, prog []byte) []deltaSubject {
	var out []deltaSubject
	for _, mk := range []func() (*appir.Program, *appir.State){
		apps.L2Learning, apps.ARPHub, apps.L3Learning, apps.OFFirewall, apps.MACBlocker, apps.Route, crossReads,
		apps.IPBalancer,
	} {
		p, st := mk()
		paths, err := Explore(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		out = append(out, deltaSubject{name: p.Name, paths: paths, st: st, globals: p.Globals})
	}
	return append(out, generatedSubject(prog)...)
}

// entryValue draws a value of kind k from a domain that holds the
// broadcast MAC, keys with the top bit of their kind set, and few enough
// others that learns, re-learns and unlearns keep meeting live entries
// (and the keys a step unlearns or probes are often absent).
func entryValue(k appir.Kind, b byte) appir.Value {
	b %= 32
	switch k {
	case appir.KindMAC:
		if b == 31 {
			return appir.MACValue(netpkt.Broadcast)
		}
		return appir.MACValue(netpkt.MAC{b & 16 * 15, 0, 0, 0, 0, b})
	case appir.KindIP:
		return appir.IPValue(netpkt.IPv4(uint32(b&16)<<27 | 10<<16 | uint32(b)))
	case appir.KindU8:
		return appir.U8Value(b)
	case appir.KindBool:
		return appir.BoolValue(b&1 == 1)
	default:
		return appir.U16Value(uint16(b&16)<<11 | uint16(b))
	}
}

// entryBurst is how many keys a burst writes: enough to take the table
// past TableEntries' radix cutoff and the memo past the change journal.
// Every burst writes the same keys, so tables stay within a few hundred
// entries.
const entryBurst = 300

// mutateEntries applies one decoded mutation to the subject's state.
func (s *deltaSubject) mutateEntries(next func() byte) {
	if len(s.globals) == 0 {
		return
	}
	g := s.globals[int(next())%len(s.globals)]
	op, k, v := next(), next(), next()
	switch g.Kind {
	case appir.GlobalScalar:
		s.st.SetScalar(g.Name, entryValue(g.ValKind, v))
	case appir.GlobalPrefixTable:
		prefix, length := appir.IPValue(netpkt.IPv4(uint32(k&3)<<30)), int(k>>2)%3+1
		if op%3 == 0 {
			s.st.RemovePrefix(g.Name, prefix, length)
		} else {
			s.st.AddPrefix(g.Name, prefix, length, entryValue(g.ValKind, v))
		}
	default:
		switch op %= 8; op {
		case 0, 1:
			s.st.Unlearn(g.Name, entryValue(g.KeyKind, k))
		case 2:
			if g.Name != s.globals[0].Name {
				break // one table only, so that a product of two fan-outs stays small
			}
			for i := 0; i < entryBurst; i++ {
				key := entryValue(g.KeyKind, 31)
				key.Bits ^= uint64(i+1) << 5 // off the small domain, top bit kept
				s.st.Learn(g.Name, key, entryValue(g.ValKind, v+byte(i)))
			}
		default:
			s.st.Learn(g.Name, entryValue(g.KeyKind, k), entryValue(g.ValKind, v))
		}
	}
}

// runEntryDerive mutates the subjects one decoded step at a time and,
// after each step, holds DeriveRules and a memo that has followed
// every step to the whole solve: same rules in the same order, or the
// same error. It returns how many entries the memos re-solved one by
// one and the largest rule set a step derived.
func runEntryDerive(t testing.TB, prog, script []byte) (entries uint64, most int) {
	pos := 0
	next := func() byte {
		if pos >= len(script) {
			return 0
		}
		pos++
		return script[pos-1]
	}
	subjects := entrySubjects(t, prog)
	memos := make([]*Memo, len(subjects))
	for i := range subjects {
		memos[i] = NewMemo(subjects[i].paths)
	}
	for step := 0; step < len(subjects) || pos < len(script); step++ {
		i := step
		if step >= len(subjects) {
			i = int(next()) % len(subjects)
			subjects[i].mutateEntries(next)
		}
		s := &subjects[i]
		want, wantErr := wholeSolve(s.paths, s.st)
		got, err := DeriveRules(s.paths, s.st)
		sameDerive(t, fmt.Sprintf("%s step %d: DeriveRules", s.name, step), got, err, want, wantErr)
		got, err = memos[i].Derive(s.st, DeriveOptions{})
		sameDerive(t, fmt.Sprintf("%s step %d: Memo.Derive", s.name, step), got, err, want, wantErr)
		most = max(most, len(want))
	}
	for _, m := range memos {
		entries += m.EntriesResolved()
	}
	return entries, most
}

func sameDerive(t testing.TB, what string, got []ProactiveRule, err error, want []ProactiveRule, wantErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err %v, whole solve err %v", what, err, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s diverges from the whole solve (%d vs %d rules)\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
}

// Seeded random states over every bundled app: broadcast and absent
// keys, tables on both sides of the radix cutoff, prefix and scalar
// moves. DeriveRules and the memo must equal the whole solve after
// every step.
func TestDeriveMatchesWholeSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(0xE117))
	var entries uint64
	most := 0
	for round := 0; round < 6; round++ {
		prog, script := make([]byte, 48), make([]byte, 600)
		rng.Read(prog)
		rng.Read(script)
		e, m := runEntryDerive(t, prog, script)
		entries, most = entries+e, max(most, m)
	}
	if entries == 0 || most < entryBurst {
		t.Errorf("%d entries re-solved one by one, at most %d rules: the script missed the memo's delta or the radix sort", entries, most)
	}
}

// The broadcast MAC learned into l2_learning's table is an entry the
// install path's negative constraint (dl_dst ≠ broadcast) must drop,
// and an unlearned key is one the memo must drop without a whole solve.
func TestEntryDeriveBroadcastAndAbsentKeys(t *testing.T) {
	prog, st := apps.L2Learning()
	paths, err := Explore(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(paths)
	host := appir.MACValue(netpkt.MAC{2, 0, 0, 0, 0, 1})
	bcast := appir.MACValue(netpkt.Broadcast)
	for step, mutate := range []func(){
		func() { st.Learn("macToPort", host, appir.U16Value(3)) },
		func() { st.Learn("macToPort", bcast, appir.U16Value(4)) },
		func() { st.Unlearn("macToPort", host) },
		func() { st.Unlearn("macToPort", host) }, // absent already: a no-op
		func() { st.Learn("macToPort", host, appir.U16Value(5)) },
	} {
		mutate()
		want, wantErr := wholeSolve(paths, st)
		got, err := DeriveRules(paths, st)
		sameDerive(t, fmt.Sprintf("step %d: DeriveRules", step), got, err, want, wantErr)
		got, err = m.Derive(st, DeriveOptions{})
		sameDerive(t, fmt.Sprintf("step %d: Memo.Derive", step), got, err, want, wantErr)
		for _, r := range got {
			if r.Rule.Match.DlDst == netpkt.Broadcast {
				t.Fatalf("step %d: a rule for the broadcast entry: %v", step, r.Rule)
			}
		}
	}
	if m.EntriesResolved() == 0 {
		t.Error("no step went entry by entry")
	}
}

// FuzzEntryDerive is the same comparison under coverage guidance: the
// first input is the generated handler, the second the mutation script.
func FuzzEntryDerive(f *testing.F) {
	f.Add([]byte{}, []byte{0, 0, 3, 31, 1, 0, 0, 0, 31, 2})
	f.Add([]byte{}, []byte{0, 0, 3, 5, 1, 0, 0, 3, 6, 2, 0, 0, 2, 0, 9, 0, 0, 0, 5, 0})
	f.Add([]byte{0, 2, 1, 0, 1, 2, 1, 0, 1, 2, 0}, []byte{8, 1, 2, 5, 5, 8, 0, 3, 7, 1, 8, 0, 0, 7})
	f.Add([]byte{0, 0, 7, 1, 2, 0, 6, 3, 0, 1, 4, 5, 0, 2, 2, 1}, []byte{4, 0, 3, 1, 1, 9, 1, 6, 20, 3, 6, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, prog, script []byte) {
		if len(script) > 128 {
			script = script[:128]
		}
		runEntryDerive(t, prog, script)
	})
}

// A cold derive's allocations must not grow with the number of learned
// MACs: one table snapshot, one output, one action block and one boxed
// action per distinct port, whatever the rule count.
func TestColdDeriveAllocsFlat(t *testing.T) {
	allocs := func(hosts int) float64 {
		prog, st := apps.L2Learning()
		for i := 0; i < hosts; i++ {
			st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(0x020000000000+uint64(i))), appir.U16Value(uint16(i%47)+1))
		}
		paths, err := Explore(prog)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			rules, err := DeriveRules(paths, st)
			if err != nil || len(rules) != hosts {
				t.Fatalf("%d hosts: %d rules, err %v", hosts, len(rules), err)
			}
		})
	}
	small, large := allocs(1_000), allocs(16_000)
	t.Logf("cold derive: %.0f allocations at 1 000 MACs, %.0f at 16 000", small, large)
	if large > small+64 {
		t.Errorf("cold derive allocates %.0f times at 16 000 MACs, %.0f at 1 000: it grows with the rule count", large, small)
	}
}
