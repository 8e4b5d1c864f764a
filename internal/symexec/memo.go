package symexec

import (
	"slices"
	"sort"
	"sync/atomic"

	"floodguard/internal/appir"
	"floodguard/internal/solver"
)

// Memo caches per-path derivation results keyed by the epochs of the
// globals each path reads. appir.State stamps every global with the
// store version of its last real mutation, so a path whose referenced
// globals all carry the epochs recorded at its last derivation must
// concretize to the same rules — Derive reuses them and re-solves only
// the stale paths. A repeat Init→Defense transition with unchanged
// state then costs one version fetch and a slice concatenation instead
// of a full Algorithm 2 run.
//
// A stale path is not necessarily re-solved whole. The table-driven
// paths — one rule group per entry of the table they fan out over, see
// entryShape — are kept per entry: when that table is the only global
// that moved and the state's change journal still names the keys that
// did (appir.State.TableChanges), only those entries go back through
// the solver. What the tracker pays per tick is then set by how much
// changed, not by how many MACs an attacker got the app to learn.
//
// Derive is not safe for concurrent calls (the analyzer runs one
// derivation at a time); Stats is safe from any goroutine.
type Memo struct {
	paths []Path
	ar    *solver.Arena // every re-solve's, kept across calls
	// union is the deduplicated list of globals any path reads; vers is
	// their epoch snapshot buffer, refreshed per Derive under one lock.
	union []string
	vers  []uint64
	// deps[i] indexes union for the globals path i reads.
	deps  [][]int
	slots []memoSlot
	// last is the assembled rule set, built only when Derive asks for it
	// and reusable verbatim while every slot stays fresh (lastOK): the
	// fully-warm path then costs one epoch sweep and no allocation.
	last   []ProactiveRule
	lastOK bool
	// removed and added record what the last refresh took out of and
	// put into the derived set, slot by slot in group order: the lists
	// DeriveDelta returns, reused by the next call.
	removed, added []ProactiveRule

	hits    atomic.Uint64
	misses  atomic.Uint64
	entries atomic.Uint64
}

type memoSlot struct {
	valid bool
	vers  []uint64 // dep epochs at derivation time, aligned with deps[i]
	rules []ProactiveRule

	// byEntry marks a path of entry shape. Its rules live in groups, not
	// in rules: one group per key of table that yields any, in
	// TableEntries order — which is the order a whole-path solve emits
	// them in, so concatenating the groups reproduces it exactly.
	byEntry  bool
	table    string
	field    appir.Field
	tableDep int // position of table in deps[i] / vers
	groups   []entryGroup
	changed  []appir.Value // scratch: journal read-out
}

// entryGroup is the rules one table entry contributes to its path.
type entryGroup struct {
	key   appir.Value
	rules []ProactiveRule
}

// NewMemo prepares a memo over the given paths, extracting each path's
// global-variable dependencies once.
func NewMemo(paths []Path) *Memo {
	m := &Memo{
		paths: paths,
		ar:    solver.NewArena(),
		deps:  make([][]int, len(paths)),
		slots: make([]memoSlot, len(paths)),
	}
	idx := make(map[string]int)
	for i := range paths {
		names := pathGlobals(&paths[i])
		di := make([]int, 0, len(names))
		for _, n := range names {
			j, ok := idx[n]
			if !ok {
				j = len(m.union)
				idx[n] = j
				m.union = append(m.union, n)
			}
			di = append(di, j)
		}
		m.deps[i] = di
		s := &m.slots[i]
		s.vers = make([]uint64, len(di))
		if s.table, s.field, s.byEntry = entryShape(&paths[i]); s.byEntry {
			s.tableDep = sort.SearchStrings(names, s.table)
		}
	}
	return m
}

// entryShape recognises the paths whose derivation decomposes per table
// entry: exactly one fan-out, a positive membership test of packet field
// f in exact table T, and no other view of T than the entry at that same
// f (negated membership, lookups in match values and actions). Binding f
// to one key then fixes everything the path can read of T, so the rules
// for that key depend on that entry alone, and — the fan-out being the
// only one — a whole solve emits them key by key in TableEntries order.
// Every table-driven install path of the bundled apps has this shape
// (l2_learning, l3_learning, mac_blocker, of_firewall's port block); a
// path that fans out over a prefix table, over two tables, or reads T
// at some other key does not, and is re-solved whole.
func entryShape(p *Path) (table string, f appir.Field, ok bool) {
	if len(p.Installs) == 0 {
		return "", 0, false
	}
	fanOuts := 0
	for _, c := range p.Conds {
		if !c.Want {
			continue
		}
		switch x := c.Expr.(type) {
		case appir.InPrefixTable:
			return "", 0, false
		case appir.InTable:
			fr, isField := x.Key.(appir.FieldRef)
			if !isField {
				return "", 0, false
			}
			table, f = x.Table, fr.F
			fanOuts++
		}
	}
	if fanOuts != 1 {
		return "", 0, false
	}
	keyed := func(e appir.Expr) bool { return e == nil || appir.KeyedOnly(e, table, f) }
	for _, c := range p.Conds {
		if !keyed(c.Expr) {
			return "", 0, false
		}
	}
	for _, r := range p.Installs {
		for _, mf := range r.Match {
			if !keyed(mf.Val) {
				return "", 0, false
			}
		}
		for _, a := range r.Actions {
			if !keyed(actionExpr(a)) {
				return "", 0, false
			}
		}
	}
	return table, f, true
}

// pathGlobals returns the sorted, deduplicated global names a path's
// derivation reads: its condition plus its install templates (match
// values and actions all resolve against the live state).
func pathGlobals(p *Path) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	for _, c := range p.Conds {
		add(appir.UsedGlobals(c.Expr))
	}
	for _, r := range p.Installs {
		for _, mf := range r.Match {
			add(appir.UsedGlobals(mf.Val))
		}
		for _, a := range r.Actions {
			add(actionGlobals(a))
		}
	}
	sort.Strings(out)
	return out
}

// Derive returns the rules DeriveRules would produce for the live
// state, re-solving only what mutated since the last derivation: stale
// paths, and of a stale entry-shaped path only the changed entries. The
// returned slice shares per-rule storage with the cache and is reused
// while nothing changes: callers must not modify it.
func (m *Memo) Derive(st *appir.State, _ DeriveOptions) ([]ProactiveRule, error) {
	if err := m.refresh(st); err != nil {
		return nil, err
	}
	if m.lastOK {
		return m.last, nil
	}
	total := 0
	for i := range m.slots {
		total += len(m.slots[i].rules)
		for _, g := range m.slots[i].groups {
			total += len(g.rules)
		}
	}
	m.last = nil // the sequential convention: no rules is a nil slice
	if total > 0 {
		m.last = make([]ProactiveRule, 0, total)
	}
	for i := range m.slots {
		m.last = append(m.last, m.slots[i].rules...)
		for _, g := range m.slots[i].groups {
			m.last = append(m.last, g.rules...)
		}
	}
	m.lastOK = true
	return m.last, nil
}

// DeriveDelta brings the memo up to the live state like Derive but
// reports only what changed since the previous Derive or DeriveDelta:
// the rules taken out of and put into the derived set, each in slot →
// group order, so removed-then-added applied to the previous set yields
// Derive's result as a multiset. A re-solved rule that did not change
// is reported in both lists. Its cost is set by the change, not by the
// size of the set: nothing is reassembled.
//
// On error the lists still carry the change of every slot that did
// re-solve (those slots are committed); the failing slot keeps its
// previous rules and is re-solved next call. Both slices are reused by
// the next call.
func (m *Memo) DeriveDelta(st *appir.State, _ DeriveOptions) (removed, added []ProactiveRule, err error) {
	err = m.refresh(st)
	return m.removed, m.added, err
}

// refresh re-solves, in slot order, the slots whose dependencies moved,
// recording the change in m.removed and m.added. It stops at the first
// slot that fails.
func (m *Memo) refresh(st *appir.State) error {
	m.vers = st.GlobalVersions(m.union, m.vers[:0])
	m.removed, m.added = m.removed[:0], m.added[:0]
	for i := range m.slots {
		if m.slots[i].valid && m.staleDeps(i) == 0 {
			m.hits.Add(1)
			continue
		}
		m.misses.Add(1)
		m.lastOK = false
		if err := m.resolve(i, st); err != nil {
			return err
		}
	}
	return nil
}

// staleDeps counts the globals of path i whose epoch moved since the
// slot was derived.
func (m *Memo) staleDeps(i int) int {
	n := 0
	for d, j := range m.deps[i] {
		if m.slots[i].vers[d] != m.vers[j] {
			n++
		}
	}
	return n
}

// resolve brings slot i up to the epochs in m.vers, appending what it
// removed and added to m.removed and m.added.
func (m *Memo) resolve(i int, st *appir.State) error {
	s, p, ar := &m.slots[i], &m.paths[i], m.ar
	// On any failure the slot stays invalid and the next call re-solves
	// it whole; what it holds is still what its delta has reported.
	wasValid := s.valid
	s.valid = false
	switch {
	case !s.byEntry:
		rules, err := derivePath(p, st, ar)
		if err != nil {
			return err
		}
		m.removed = append(m.removed, s.rules...)
		m.added = append(m.added, rules...)
		s.rules = rules
	case wasValid && m.onlyTableStale(i) && m.resolveChanged(s, p, st):
		// The table moved, nothing else did, and the journal named the
		// keys: the other entries' groups stand.
	default:
		// Every entry of the table, each group cut from one output.
		entries := st.TableEntries(s.table)
		d := newEntryDeriver(p, s.table, s.field, st, ar, len(entries))
		var groups []entryGroup // append's slack absorbs later inserts
		for _, e := range entries {
			lo := len(d.out)
			if err := d.derive(e.Key, e.Val); err != nil {
				return err
			}
			if hi := len(d.out); hi > lo {
				groups = append(groups, entryGroup{key: e.Key, rules: d.out[lo:hi:hi]})
			}
		}
		for _, g := range s.groups {
			m.removed = append(m.removed, g.rules...)
		}
		m.added = append(m.added, d.out...)
		s.groups = groups
	}
	for d, j := range m.deps[i] {
		s.vers[d] = m.vers[j]
	}
	s.valid = true
	return nil
}

// onlyTableStale reports whether entry-shaped slot i is stale in its
// fan-out table and in nothing else.
func (m *Memo) onlyTableStale(i int) bool {
	s := &m.slots[i]
	return m.staleDeps(i) == 1 && s.vers[s.tableDep] != m.vers[m.deps[i][s.tableDep]]
}

// resolveChanged re-solves only the entries of s.table the journal says
// changed since the slot's epoch, each read live once and derived like a
// whole solve derives it. It reports false — fall back to the whole
// solve — when the journal no longer reaches back that far or an entry
// fails to derive.
func (m *Memo) resolveChanged(s *memoSlot, p *Path, st *appir.State) bool {
	var ok bool
	if s.changed, ok = st.TableChanges(s.table, s.vers[s.tableDep], s.changed[:0]); !ok {
		return false
	}
	d := newEntryDeriver(p, s.table, s.field, st, m.ar, len(s.changed))
	for n, key := range s.changed {
		if slices.Contains(s.changed[:n], key) {
			continue // already re-solved against the live state
		}
		lo := len(d.out)
		if val, live := st.LookupTable(s.table, key); live {
			if err := d.derive(key, val); err != nil {
				return false // the whole solve reports it
			}
		}
		rules := d.out[lo:len(d.out):len(d.out)]
		at, found := slices.BinarySearchFunc(s.groups, key, func(g entryGroup, k appir.Value) int { return g.key.Compare(k) })
		if found {
			m.removed = append(m.removed, s.groups[at].rules...)
		}
		m.added = append(m.added, rules...)
		switch {
		case len(rules) == 0 && found:
			s.groups = slices.Delete(s.groups, at, at+1)
		case len(rules) > 0 && found:
			s.groups[at].rules = rules
		case len(rules) > 0:
			s.groups = slices.Insert(s.groups, at, entryGroup{key: key, rules: rules})
		}
		m.entries.Add(1)
	}
	return true
}

// Stats returns the cumulative per-path cache hits and misses across
// Derive calls. Safe from any goroutine.
func (m *Memo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// EntriesResolved returns how many table entries stale paths re-solved
// one by one instead of being re-solved whole. Safe from any goroutine.
func (m *Memo) EntriesResolved() uint64 { return m.entries.Load() }
