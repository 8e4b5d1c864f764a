package appir

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"floodguard/internal/netpkt"
)

// scanLPM is the linear longest-prefix match the index replaced: the
// first row, in row order, whose prefix contains ip. It is the oracle
// LookupLPM and InAnyPrefix are held to.
func scanLPM(rows []PrefixEntry, ip Value) (Value, bool) {
	for _, r := range rows {
		if ip.IP().InPrefix(r.Prefix.IP(), r.Len) {
			return r.Val, true
		}
	}
	return Value{}, false
}

// routeKey names one route of a prefix model.
type routeKey struct {
	prefix Value
	length int
}

// sortedRows is the order oracle: the model's routes sorted longest
// first, then by prefix bits, then kind.
func sortedRows(model map[routeKey]Value) []PrefixEntry {
	rows := make([]PrefixEntry, 0, len(model))
	for k, v := range model {
		rows = append(rows, PrefixEntry{Prefix: k.prefix, Len: k.length, Val: v})
	}
	slices.SortFunc(rows, func(a, b PrefixEntry) int {
		return cmp.Or(cmp.Compare(b.Len, a.Len), cmp.Compare(a.Prefix.Bits, b.Prefix.Bits), cmp.Compare(a.Prefix.Kind, b.Prefix.Kind))
	})
	return rows
}

// prefixSubject is one store under test and the routes it must hold.
type prefixSubject struct {
	st    *State
	model map[routeKey]Value
}

// prefixLengths spans both of InPrefix's special cases (≤ 0, ≥ 32)
// around the ordinary lengths.
var prefixLengths = []int{-1, 0, 1, 7, 8, 9, 15, 16, 24, 31, 32, 33}

// runPrefixIndex decodes script into AddPrefix (new routes, and
// replacements of live ones), RemovePrefix (of live and absent routes)
// and Clone steps over two stores, and after every step holds both to
// their models: PrefixEntries equals the sorted routes, every probe's
// LookupLPM and InAnyPrefix equal the scan's, and the version moved
// exactly when a route did. The addresses come from a small domain with
// host bits set, so several routes of a length often mask to one
// network.
func runPrefixIndex(t testing.TB, script []byte) {
	pos := 0
	next := func() int {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int(script[pos-1])
	}
	addr := func() Value {
		bases := [...]uint32{0x00000000, 0x0a000000, 0x0a010000, 0x0a018000, 0xc0a80100, 0xffffffff}
		b := bases[next()%len(bases)]
		return IPValue(netpkt.IPv4(b ^ uint32(next()&0x0f)<<(next()%32)))
	}
	live := func(s *prefixSubject) (routeKey, bool) {
		if len(s.model) == 0 {
			return routeKey{}, false
		}
		rows := sortedRows(s.model)
		r := rows[next()%len(rows)]
		return routeKey{r.Prefix, r.Len}, true
	}
	subjects := [2]prefixSubject{{NewState(), map[routeKey]Value{}}, {NewState(), map[routeKey]Value{}}}
	for step := 0; pos < len(script); step++ {
		s := &subjects[next()%2]
		before := s.st.Version()
		moved := false
		switch op := next() % 8; {
		case op < 3: // add a route, new or not
			k := routeKey{addr(), prefixLengths[next()%len(prefixLengths)]}
			v := U16Value(uint16(next() % 4))
			old, ok := s.model[k]
			moved = !ok || old != v
			s.st.AddPrefix("r", k.prefix, k.length, v)
			s.model[k] = v
		case op == 3: // re-point a live route
			if k, ok := live(s); ok {
				v := U16Value(uint16(next() % 4))
				moved = s.model[k] != v
				s.st.AddPrefix("r", k.prefix, k.length, v)
				s.model[k] = v
			}
		case op < 6: // remove a live route
			if k, ok := live(s); ok {
				moved = true
				s.st.RemovePrefix("r", k.prefix, k.length)
				delete(s.model, k)
			}
		case op == 6: // remove a route that may be absent
			k := routeKey{addr(), prefixLengths[next()%len(prefixLengths)]}
			_, moved = s.model[k]
			s.st.RemovePrefix("r", k.prefix, k.length)
			delete(s.model, k)
		default: // the other store becomes a clone of this one
			o := &subjects[0]
			if o == s {
				o = &subjects[1]
			}
			o.st, o.model = s.st.Clone(), maps.Clone(s.model)
		}
		if got := s.st.Version() != before; got != moved {
			t.Fatalf("step %d: version moved %v, want %v", step, got, moved)
		}
		for i := range subjects {
			checkPrefixSubject(t, step, &subjects[i])
		}
	}
}

// checkPrefixSubject holds one store to its model.
func checkPrefixSubject(t testing.TB, step int, s *prefixSubject) {
	t.Helper()
	want := sortedRows(s.model)
	if got := s.st.PrefixEntries("r"); !slices.Equal(got, want) {
		t.Fatalf("step %d: PrefixEntries\n got %v\nwant %v", step, got, want)
	}
	probes := []uint32{0, 1, 0x0a000001, 0x0a01ffff, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}
	for _, r := range want {
		p := uint32(r.Prefix.IP())
		probes = append(probes, p, p^1, p^0x80, p^0x8000, p^0x800000)
	}
	for _, p := range probes {
		ip := IPValue(netpkt.IPv4(p))
		wv, wok := scanLPM(want, ip)
		if gv, gok := s.st.LookupLPM("r", ip); gv != wv || gok != wok {
			t.Fatalf("step %d: LookupLPM(%v) = %v, %v; the scan says %v, %v over %v", step, ip, gv, gok, wv, wok, want)
		}
		if got := s.st.InAnyPrefix("r", ip); got != wok {
			t.Fatalf("step %d: InAnyPrefix(%v) = %v, the scan says %v", step, ip, got, wok)
		}
	}
}

// Seeded add / replace / remove / clone sequences: the index must answer
// exactly as the linear scan over the sorted rows after every step.
func TestPrefixIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1F1))
	for round := 0; round < 20; round++ {
		script := make([]byte, 1200)
		rng.Read(script)
		runPrefixIndex(t, script)
	}
}

// FuzzLookupLPM is the same comparison under coverage guidance.
func FuzzLookupLPM(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 5, 2, 0, 0, 1, 0, 7, 4, 1})
	f.Add([]byte{0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 2, 0, 1, 0, 4, 0, 0, 0, 0, 0, 7, 0})
	f.Add([]byte{1, 2, 5, 1, 2, 11, 0, 0, 2, 5, 3, 2, 11, 1, 7, 0, 5, 0, 1, 4, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		runPrefixIndex(t, script)
	})
}

// A route table loaded in random order, with replacements, holds its
// rows in exactly the order a sort of the final routes gives.
func TestAddPrefixOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(0xADD))
	st := NewState()
	model := map[routeKey]Value{}
	for i := 0; i < 3000; i++ {
		k := routeKey{IPValue(netpkt.IPv4(rng.Uint32() & 0xffff_f000)), prefixLengths[rng.Intn(len(prefixLengths))]}
		v := U16Value(uint16(rng.Intn(8)))
		st.AddPrefix("r", k.prefix, k.length, v)
		model[k] = v
	}
	if got, want := st.PrefixEntries("r"), sortedRows(model); !slices.Equal(got, want) {
		t.Fatalf("%d rows out of sort order", len(want))
	}
}
