package appir

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// PrefixEntry is one row of a longest-prefix-match table.
type PrefixEntry struct {
	Prefix Value // KindIP
	Len    int
	Val    Value
}

// State is the global variable store shared by a controller application's
// handler invocations. It is versioned: every mutation bumps the version,
// which is how the application tracker notices that previously derived
// proactive flow rules are stale (paper §IV.D, Figure 8).
//
// State is safe for concurrent use; the controller event loop and the
// analyzer's tracker read it from different goroutines.
type State struct {
	mu       sync.RWMutex
	tables   map[string]map[Value]Value
	prefixes map[string]*prefixTable
	scalars  map[string]Value
	version  uint64
	// gvers holds one monotonic epoch per global name, bumped in lock
	// step with version by whichever mutation touched that global.
	// Derivation caches key on these: a path whose referenced globals
	// all carry unchanged epochs must concretize identically.
	gvers map[string]uint64
	// journals holds, per exact table, which keys its most recent
	// mutations touched, so a derivation cache can re-solve the entries
	// that changed instead of the whole table (TableChanges).
	journals map[string]*tableJournal
}

// journalCap is how many entry mutations of one exact table the change
// journal remembers. It bounds the journal's memory per table whatever
// the number of Learn calls; a reader further behind than this re-reads
// the whole table, so the figure trades nothing but the cost of that
// one derivation.
const journalCap = 64

// tableJournal is the fixed-capacity ring of one exact table's latest
// entry mutations, oldest overwritten first.
type tableJournal struct {
	ring [journalCap]struct {
		epoch uint64
		key   Value
	}
	n int // mutations recorded so far; the live ones are the last min(n, journalCap)
	// floor is the newest epoch the ring cannot answer for: every
	// mutation of this global after floor is in the ring.
	floor uint64
}

// NewState returns an empty store.
func NewState() *State {
	return &State{
		tables:   make(map[string]map[Value]Value),
		prefixes: make(map[string]*prefixTable),
		scalars:  make(map[string]Value),
		gvers:    make(map[string]uint64),
		journals: make(map[string]*tableJournal),
	}
}

// Version returns the mutation counter.
func (s *State) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// bump records a mutation of the named prefix table or scalar. It must
// be called with mu held for writing.
func (s *State) bump(name string) {
	s.version++
	s.gvers[name] = s.version
	if j := s.journals[name]; j != nil {
		// An exact table shares the name (and so the epoch): this write is
		// one its journal cannot describe.
		j.floor = s.version
	}
}

// bumpEntry records a mutation of one entry of an exact table. It must
// be called with mu held for writing.
func (s *State) bumpEntry(table string, key Value) {
	j := s.journals[table]
	if j == nil {
		j = &tableJournal{floor: s.gvers[table]}
		s.journals[table] = j
	}
	s.version++
	s.gvers[table] = s.version
	slot := &j.ring[j.n%journalCap]
	if j.n >= journalCap {
		j.floor = slot.epoch
	}
	slot.epoch, slot.key = s.version, key
	j.n++
}

// TableChanges appends to buf the key of every entry of the exact table
// that was written or removed after epoch since (a key written twice
// appears twice). ok is false when the journal does not reach back to
// since — more than journalCap entry mutations have happened, or the
// name was also written as a prefix table or scalar — and the caller
// must read the whole table instead.
func (s *State) TableChanges(table string, since uint64, buf []Value) (keys []Value, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j := s.journals[table]
	if j == nil {
		return buf, s.gvers[table] <= since
	}
	if since < j.floor {
		return buf, false
	}
	for i := max(0, j.n-journalCap); i < j.n; i++ {
		if e := &j.ring[i%journalCap]; e.epoch > since {
			buf = append(buf, e.key)
		}
	}
	return buf, true
}

// GlobalVersion returns the epoch of one named global: the value of the
// store-wide mutation counter at the time of that global's last real
// (non-no-op) mutation, or 0 if it was never written.
func (s *State) GlobalVersion(name string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gvers[name]
}

// GlobalVersions appends the epochs of the named globals to buf (in the
// given order) under a single read lock — the fetch step of epoch-keyed
// derivation memoization.
func (s *State) GlobalVersions(names []string, buf []uint64) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, n := range names {
		buf = append(buf, s.gvers[n])
	}
	return buf
}

// Learn sets table[key] = val.
func (s *State) Learn(table string, key, val Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		t = make(map[Value]Value)
		s.tables[table] = t
	}
	if old, ok := t[key]; ok && old == val {
		return // no-op writes do not invalidate derived rules
	}
	t[key] = val
	s.bumpEntry(table, key)
}

// Unlearn removes table[key].
func (s *State) Unlearn(table string, key Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		return
	}
	if _, ok := t[key]; !ok {
		return
	}
	delete(t, key)
	s.bumpEntry(table, key)
}

// Contains tests exact-table membership.
func (s *State) Contains(table string, key Value) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.tables[table][key]
	return ok
}

// LookupTable reads table[key].
func (s *State) LookupTable(table string, key Value) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.tables[table][key]
	return v, ok
}

// TableLen returns the entry count of an exact table.
func (s *State) TableLen(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables[table])
}

// TableEntries returns a deterministic (key-sorted) snapshot of an exact
// table — the enumeration step of rule concretization.
func (s *State) TableEntries(table string) []struct{ Key, Val Value } {
	s.mu.RLock()
	t := s.tables[table]
	out := make([]struct{ Key, Val Value }, 0, len(t))
	for k, v := range t {
		out = append(out, struct{ Key, Val Value }{k, v})
	}
	s.mu.RUnlock()
	return sortEntries(out)
}

// radixMin is the entry count from which sortEntries radix-sorts: below
// it a comparison sort is as fast and needs no scratch copy.
const radixMin = 256

// sortEntries orders entries by Value.Compare and returns them, possibly
// in a different backing array. Keys are unique, so any correct sort
// yields the one Compare order. When every key has the same Kind that
// order is the order of Bits, which an LSD byte radix sort reaches in
// one counting pass and one scatter per byte the keys differ in; a
// table of mixed kinds falls back to the comparison sort.
func sortEntries(es []struct{ Key, Val Value }) []struct{ Key, Val Value } {
	if len(es) < radixMin || slices.ContainsFunc(es, func(e struct{ Key, Val Value }) bool { return e.Key.Kind != es[0].Key.Kind }) {
		slices.SortFunc(es, func(a, b struct{ Key, Val Value }) int { return a.Key.Compare(b.Key) })
		return es
	}
	var counts [8][256]int
	for _, e := range es {
		for d := range counts {
			counts[d][byte(e.Key.Bits>>(8*d))]++
		}
	}
	tmp := make([]struct{ Key, Val Value }, len(es))
	for d := range counts {
		c := &counts[d]
		if c[byte(es[0].Key.Bits>>(8*d))] == len(es) {
			continue // every key holds the same byte here
		}
		at := 0
		for b, n := range c {
			c[b] = at
			at += n
		}
		for _, e := range es {
			b := byte(e.Key.Bits >> (8 * d))
			tmp[c[b]] = e
			c[b]++
		}
		es, tmp = tmp, es
	}
	return es
}

// AddPrefix inserts (or replaces) a prefix route.
func (s *State) AddPrefix(table string, prefix Value, length int, val Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.prefixes[table]
	if t == nil {
		t = &prefixTable{}
		s.prefixes[table] = t
	}
	if t.add(PrefixEntry{Prefix: prefix, Len: length, Val: val}) {
		s.bump(table)
	}
}

// RemovePrefix deletes a prefix route.
func (s *State) RemovePrefix(table string, prefix Value, length int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.prefixes[table]; t != nil && t.remove(prefix, length) {
		s.bump(table)
	}
}

// LookupLPM returns the value of the longest prefix containing ip.
func (s *State) LookupLPM(table string, ip Value) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.prefixes[table]; t != nil {
		return t.lookup(ip)
	}
	return Value{}, false
}

// InAnyPrefix tests whether ip falls inside any prefix of the table.
func (s *State) InAnyPrefix(table string, ip Value) bool {
	_, ok := s.LookupLPM(table, ip)
	return ok
}

// PrefixEntries returns a snapshot of a prefix table, longest first.
func (s *State) PrefixEntries(table string) []PrefixEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var rows []PrefixEntry
	if t := s.prefixes[table]; t != nil {
		rows = t.rows
	}
	out := make([]PrefixEntry, len(rows))
	copy(out, rows)
	return out
}

// SetScalar writes a named scalar.
func (s *State) SetScalar(name string, v Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.scalars[name]; ok && old == v {
		return
	}
	s.scalars[name] = v
	s.bump(name)
}

// Scalar reads a named scalar.
func (s *State) Scalar(name string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.scalars[name]
	return v, ok
}

// Clone returns an independent deep copy of the store (same version).
func (s *State) Clone() *State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := NewState()
	for name, t := range s.tables {
		nt := make(map[Value]Value, len(t))
		for k, v := range t {
			nt[k] = v
		}
		out.tables[name] = nt
	}
	for name, t := range s.prefixes {
		out.prefixes[name] = t.clone()
	}
	for name, v := range s.scalars {
		out.scalars[name] = v
	}
	for name, v := range s.gvers {
		out.gvers[name] = v
	}
	out.version = s.version
	return out
}

// Dump renders the full store for diagnostics.
func (s *State) Dump() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := ""
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out += fmt.Sprintf("table %s (%d entries)\n", n, len(s.tables[n]))
	}
	names = names[:0]
	for n := range s.prefixes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out += fmt.Sprintf("prefix-table %s (%d entries)\n", n, len(s.prefixes[n].rows))
	}
	names = names[:0]
	for n := range s.scalars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out += fmt.Sprintf("scalar %s = %s\n", n, s.scalars[n])
	}
	return out
}
