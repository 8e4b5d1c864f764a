// Package solver checks and concretizes the path conditions produced by
// symbolic execution of controller applications. It plays the role STP
// plays in the paper's prototype, specialised to the constraint language
// that packet_in handlers generate: equalities between header fields and
// ground values, membership in global tables and prefix tables, and the
// high-bit test.
//
// Three entry points:
//
//   - Feasible: an offline structural satisfiability check used to prune
//     contradictory paths during symbolic execution (Algorithm 1), when
//     table contents are still symbolic.
//   - ConcretizeArena: the runtime step of Algorithm 2 — substitute the live
//     values of the global variables into a path condition and enumerate
//     the concrete field assignments (match skeletons) that satisfy it.
//   - Entry: the same step for a condition whose only fan-out is one
//     exact table, solved for one table entry at a time.
package solver

import (
	"fmt"
	"strings"

	"floodguard/internal/appir"
	"floodguard/internal/netpkt"
)

// Binding constrains one packet field in a concrete assignment.
type Binding struct {
	// Exact, when not zero, pins the field to a single value.
	Exact appir.Value
	// IsPrefix constrains an IP field to a prefix instead.
	IsPrefix  bool
	Prefix    netpkt.IPv4
	PrefixLen int
}

// String renders the binding.
func (b Binding) String() string {
	if b.IsPrefix {
		return fmt.Sprintf("%v/%d", b.Prefix, b.PrefixLen)
	}
	return b.Exact.String()
}

// numFields sizes the per-assignment binding array; appir numbers its
// fields densely from 1, so index f holds field f's binding directly.
const numFields = int(appir.FTpDst) + 1

// Assignment is one satisfying combination of field constraints for a
// path condition, plus a priority penalty: each unrepresentable negative
// constraint (a ≠ or ∉ on an otherwise unconstrained field) leaves the
// field wildcarded and relies on the sibling branch's more specific,
// higher-priority rules to carve out the excluded cases.
//
// Bindings live in a fixed-size array indexed by field with a presence
// bitmask, not a map: cloning an assignment during table fan-out is then
// a plain struct copy, and enumeration order is the canonical
// match-structure field order rather than map order. Assignment values
// are comparable and copies are fully independent.
type Assignment struct {
	fields  [numFields]Binding
	bound   uint16 // bit f set ⇔ fields[f] holds a binding
	Penalty int
	// PrefixBits is the total prefix specificity, used to order
	// overlapping prefix rules so that OpenFlow priority reproduces
	// longest-prefix-match semantics.
	PrefixBits int
}

// Get returns the binding for f and whether f is constrained.
func (a *Assignment) Get(f appir.Field) (Binding, bool) {
	if int(f) >= numFields || a.bound&(1<<f) == 0 {
		return Binding{}, false
	}
	return a.fields[f], true
}

func (a *Assignment) set(f appir.Field, b Binding) {
	a.fields[f] = b
	a.bound |= 1 << f
}

// String renders the bound fields in canonical order.
func (a Assignment) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for _, f := range appir.Fields {
		b, ok := a.Get(f)
		if !ok {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "%s=%s", f, b)
	}
	if a.Penalty != 0 {
		fmt.Fprintf(&sb, " penalty=%d", a.Penalty)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Arena recycles Assignment structs across the fan-out/filter passes of
// ConcretizeArena, and its work lists across calls. Table-membership
// constraints clone one work item per table entry; without reuse that is
// one heap allocation per entry per call, which at attack time —
// thousands of paths against thousand-entry tables — is the dominant
// cost of Algorithm 2. Every work item is returned to the arena before
// ConcretizeArena returns; the survivors are copied into the result
// slice by value, so nothing handed to the caller aliases arena memory.
//
// An Arena is not safe for concurrent use. Each deriver owns one.
type Arena struct {
	free []*Assignment
	// work and next are the two scratch lists the fan-out passes
	// ping-pong between; reused across calls.
	work []*Assignment
	next []*Assignment
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// get returns a zeroed Assignment.
func (ar *Arena) get() *Assignment {
	a := ar.take()
	*a = Assignment{}
	return a
}

// take returns a recycled Assignment with whatever it last held (or a
// fresh one): for callers that overwrite it whole.
func (ar *Arena) take() *Assignment {
	if n := len(ar.free); n > 0 {
		a := ar.free[n-1]
		ar.free[n-1] = nil
		ar.free = ar.free[:n-1]
		return a
	}
	return &Assignment{}
}

// reserve tops the free list up to n Assignments with one block
// allocation, so a fan-out over a large table pays one allocation, not
// one per entry.
func (ar *Arena) reserve(n int) {
	if n -= len(ar.free); n > 0 {
		block := make([]Assignment, n)
		for i := range block {
			ar.free = append(ar.free, &block[i])
		}
	}
}

// put recycles a. It is zeroed when get hands it out again.
func (ar *Arena) put(a *Assignment) {
	ar.free = append(ar.free, a)
}

func (ar *Arena) putAll(work []*Assignment) {
	for _, a := range work {
		ar.put(a)
	}
}

// cloneFrom produces a recycled copy of a.
func (ar *Arena) cloneFrom(a *Assignment) *Assignment {
	out := ar.take()
	*out = *a
	return out
}

// bindExact narrows a field to one value; reports false on contradiction.
func (a *Assignment) bindExact(f appir.Field, v appir.Value) bool {
	cur, ok := a.Get(f)
	if !ok {
		a.set(f, Binding{Exact: v})
		return true
	}
	if cur.IsPrefix {
		if v.Kind != appir.KindIP || !v.IP().InPrefix(cur.Prefix, cur.PrefixLen) {
			return false
		}
		a.PrefixBits -= cur.PrefixLen
		a.set(f, Binding{Exact: v})
		return true
	}
	return cur.Exact == v
}

// bindPrefix narrows an IP field to a prefix; reports false on
// contradiction.
func (a *Assignment) bindPrefix(f appir.Field, prefix netpkt.IPv4, length int) bool {
	cur, ok := a.Get(f)
	if !ok {
		a.set(f, Binding{IsPrefix: true, Prefix: prefix, PrefixLen: length})
		a.PrefixBits += length
		return true
	}
	if !cur.IsPrefix {
		return cur.Exact.Kind == appir.KindIP && cur.Exact.IP().InPrefix(prefix, length)
	}
	// Two prefixes: keep the longer if nested, contradiction otherwise.
	if cur.PrefixLen >= length {
		return cur.Prefix.InPrefix(prefix, length)
	}
	if !prefix.InPrefix(cur.Prefix, cur.PrefixLen) {
		return false
	}
	a.PrefixBits += length - cur.PrefixLen
	a.set(f, Binding{IsPrefix: true, Prefix: prefix, PrefixLen: length})
	return true
}

// Feasible performs the offline structural check: it returns false only
// when the conjunction is contradictory regardless of global state.
// Memberships in (symbolic) tables are never refuted, but the same
// membership asserted both ways is.
func Feasible(conds []appir.Cond) bool {
	eq := make(map[string]appir.Value)      // fieldExpr -> pinned value
	neq := make(map[string]map[uint64]bool) // fieldExpr -> excluded bits
	seen := make(map[string]bool)           // rendered cond -> want
	for _, c := range conds {
		key := c.Expr.String()
		if want, ok := seen[key]; ok && want != c.Want {
			return false
		}
		seen[key] = c.Want

		e, isEq := c.Expr.(appir.Eq)
		if !isEq {
			continue
		}
		fr, cv, ok := fieldConst(e)
		if !ok {
			continue
		}
		fk := fr.String()
		if c.Want {
			if old, ok := eq[fk]; ok && old != cv {
				return false
			}
			if neq[fk][cv.Bits] {
				return false
			}
			eq[fk] = cv
		} else {
			if old, ok := eq[fk]; ok && old == cv {
				return false
			}
			if neq[fk] == nil {
				neq[fk] = make(map[uint64]bool)
			}
			neq[fk][cv.Bits] = true
		}
	}
	// HighBit vs pinned-value contradiction.
	for _, c := range conds {
		hb, ok := c.Expr.(appir.HighBit)
		if !ok {
			continue
		}
		fr, ok := hb.A.(appir.FieldRef)
		if !ok {
			continue
		}
		if v, pinned := eq[fr.String()]; pinned && v.Kind == appir.KindIP {
			if v.IP().HighBit() != c.Want {
				return false
			}
		}
	}
	return true
}

func fieldConst(e appir.Eq) (appir.FieldRef, appir.Value, bool) {
	if fr, ok := e.A.(appir.FieldRef); ok {
		if c, ok := e.B.(appir.Const); ok {
			return fr, c.V, true
		}
	}
	if fr, ok := e.B.(appir.FieldRef); ok {
		if c, ok := e.A.(appir.Const); ok {
			return fr, c.V, true
		}
	}
	return appir.FieldRef{}, appir.Value{}, false
}

// groundValue evaluates an expression containing no field references
// against the live state. ok is false if the expression does reference a
// field or errors.
func groundValue(e appir.Expr, st *appir.State) (appir.Value, bool) {
	switch x := e.(type) {
	case appir.Const:
		return x.V, true
	case appir.ScalarRef:
		return valOK(st.Scalar(x.Name))
	case appir.Lookup:
		k, ok := groundValue(x.Key, st)
		if !ok {
			return appir.Value{}, false
		}
		return valOK(st.LookupTable(x.Table, k))
	case appir.LookupPrefix:
		k, ok := groundValue(x.Key, st)
		if !ok {
			return appir.Value{}, false
		}
		return valOK(st.LookupLPM(x.Table, k))
	default:
		return appir.Value{}, false
	}
}

func valOK(v appir.Value, ok bool) (appir.Value, bool) {
	if !ok {
		return appir.Value{}, false
	}
	return v, ok
}

// ConcretizeArena enumerates the assignments satisfying conds once the
// global variables take their live values from st (Algorithm 2's
// assign_value step). The result may be empty (the path is currently
// unreachable). Constraints that cannot be enumerated or represented in
// a single OpenFlow match (e.g. a ≠ on an unbound field) cost a priority
// penalty and leave the field wildcarded.
//
// The caller owns the allocation arena: the deriver uses one across all
// its paths, so repeated calls reuse the same working set instead of
// re-allocating it. The result never aliases arena memory.
func ConcretizeArena(conds []appir.Cond, st *appir.State, ar *Arena) []Assignment {
	work := append(ar.work[:0], ar.get())
	ar.work = work

	// Pass 1: positive binding constraints narrow or fan out.
	for _, c := range conds {
		if !c.Want {
			continue
		}
		var err error
		work, err = applyPositive(work, c.Expr, st, ar)
		if err != nil || len(work) == 0 {
			ar.putAll(work)
			return nil
		}
	}
	// Pass 2: negative constraints filter or penalise.
	for _, c := range conds {
		if c.Want {
			continue
		}
		work = applyNegative(work, c.Expr, st, ar)
		if len(work) == 0 {
			return nil
		}
	}
	out := make([]Assignment, len(work))
	for i, a := range work {
		out[i] = *a // value copy: the result never aliases arena memory
		ar.put(a)
	}
	return out
}

// applyPositive narrows every assignment by one positive constraint.
// Dropped and fanned-out work items are returned to the arena; on error
// the input list is recycled too (the caller abandons the derivation).
func applyPositive(work []*Assignment, e appir.Expr, st *appir.State, ar *Arena) ([]*Assignment, error) {
	switch x := e.(type) {
	case appir.Eq:
		if fr, ok := x.A.(appir.FieldRef); ok {
			if v, ok := groundValue(x.B, st); ok {
				return filterMap(work, ar, func(a *Assignment) bool { return a.bindExact(fr.F, v) }), nil
			}
		}
		if fr, ok := x.B.(appir.FieldRef); ok {
			if v, ok := groundValue(x.A, st); ok {
				return filterMap(work, ar, func(a *Assignment) bool { return a.bindExact(fr.F, v) }), nil
			}
		}
		// Ground == ground: a runtime truth test.
		va, aok := groundValue(x.A, st)
		vb, bok := groundValue(x.B, st)
		if aok && bok {
			if va == vb {
				return work, nil
			}
			ar.putAll(work)
			return nil, nil
		}
		ar.putAll(work)
		return nil, fmt.Errorf("solver: unsupported equality %s", x)
	case appir.InTable:
		fr, ok := x.Key.(appir.FieldRef)
		if !ok {
			ar.putAll(work)
			return nil, fmt.Errorf("solver: membership key %s is not a field", x.Key)
		}
		entries := st.TableEntries(x.Table)
		ar.reserve(len(work) * len(entries))
		next := ar.next[:0]
		for _, a := range work {
			for _, ent := range entries {
				c := ar.cloneFrom(a)
				if c.bindExact(fr.F, ent.Key) {
					next = append(next, c)
				} else {
					ar.put(c)
				}
			}
			ar.put(a)
		}
		ar.next = next
		ar.work, ar.next = ar.next, ar.work
		return next, nil
	case appir.InPrefixTable:
		fr, ok := x.Key.(appir.FieldRef)
		if !ok {
			ar.putAll(work)
			return nil, fmt.Errorf("solver: prefix-membership key %s is not a field", x.Key)
		}
		entries := st.PrefixEntries(x.Table)
		next := ar.next[:0]
		for _, a := range work {
			for _, ent := range entries {
				c := ar.cloneFrom(a)
				if c.bindPrefix(fr.F, ent.Prefix.IP(), ent.Len) {
					next = append(next, c)
				} else {
					ar.put(c)
				}
			}
			ar.put(a)
		}
		ar.next = next
		ar.work, ar.next = ar.next, ar.work
		return next, nil
	case appir.HighBit:
		fr, ok := x.A.(appir.FieldRef)
		if !ok {
			ar.putAll(work)
			return nil, fmt.Errorf("solver: highbit of %s is not a field", x.A)
		}
		return filterMap(work, ar, func(a *Assignment) bool {
			return a.bindPrefix(fr.F, netpkt.MustIPv4("128.0.0.0"), 1)
		}), nil
	default:
		// A bare ground boolean (e.g. scalar flag).
		if v, ok := groundValue(e, st); ok {
			if v.Bool() {
				return work, nil
			}
			ar.putAll(work)
			return nil, nil
		}
		ar.putAll(work)
		return nil, fmt.Errorf("solver: unsupported positive constraint %s", e)
	}
}

// applyNegative filters assignments by one negated constraint; unbound
// fields take a penalty instead of a binding. Dropped items are recycled.
func applyNegative(work []*Assignment, e appir.Expr, st *appir.State, ar *Arena) []*Assignment {
	n := negationOf(e, st)
	return filterMap(work, ar, func(a *Assignment) bool { return n.apply(a, st) })
}

// negation is one negated constraint with its ground side evaluated
// against the live state once, leaving what it does to each assignment.
type negation struct {
	op    negOp
	f     appir.Field
	v     appir.Value // negNotEq
	table string      // negNotIn, negNotInPrefix
}

type negOp uint8

const (
	negKeep        negOp = iota // holds under every assignment
	negDrop                     // holds under none
	negPenalise                 // not representable: every assignment takes a penalty
	negNotEq                    // field f ≠ v
	negNotIn                    // field f ∉ exact table
	negNotInPrefix              // field f outside every prefix of table
	negLowBit                   // field f's high bit clear
)

func negationOf(e appir.Expr, st *appir.State) negation {
	switch x := e.(type) {
	case appir.Eq:
		fr, fok := x.A.(appir.FieldRef)
		other := x.B
		if !fok {
			fr, fok = x.B.(appir.FieldRef)
			other = x.A
		}
		if fok {
			v, ok := groundValue(other, st)
			if !ok {
				return negation{op: negPenalise}
			}
			return negation{op: negNotEq, f: fr.F, v: v}
		}
		va, aok := groundValue(x.A, st)
		vb, bok := groundValue(x.B, st)
		switch {
		case !aok || !bok:
			return negation{op: negPenalise}
		case va != vb:
			return negation{op: negKeep}
		}
		return negation{op: negDrop}
	case appir.InTable:
		if fr, ok := x.Key.(appir.FieldRef); ok {
			return negation{op: negNotIn, f: fr.F, table: x.Table}
		}
		return negation{op: negPenalise}
	case appir.InPrefixTable:
		if fr, ok := x.Key.(appir.FieldRef); ok {
			return negation{op: negNotInPrefix, f: fr.F, table: x.Table}
		}
		return negation{op: negPenalise}
	case appir.HighBit:
		if fr, ok := x.A.(appir.FieldRef); ok {
			return negation{op: negLowBit, f: fr.F}
		}
		return negation{op: negPenalise}
	default:
		v, ok := groundValue(e, st)
		switch {
		case !ok:
			return negation{op: negPenalise}
		case !v.Bool():
			return negation{op: negKeep}
		}
		return negation{op: negDrop}
	}
}

// apply narrows a by the negation and reports whether a survives.
func (n *negation) apply(a *Assignment, st *appir.State) bool {
	switch n.op {
	case negKeep:
		return true
	case negDrop:
		return false
	case negLowBit:
		// not highbit == prefix 0.0.0.0/1.
		return a.bindPrefix(n.f, 0, 1)
	}
	b, bound := a.Get(n.f)
	if n.op == negPenalise || !bound || b.IsPrefix {
		// An unbound field cannot express ≠ or ∉ in one match, and
		// neither can a prefix binding: for a bound prefix the excluded
		// point is a measure-zero subset, so penalise rather than drop.
		a.Penalty++
		return true
	}
	switch n.op {
	case negNotEq:
		return b.Exact != n.v
	case negNotIn:
		return !st.Contains(n.table, b.Exact)
	default: // negNotInPrefix
		return !st.InAnyPrefix(n.table, b.Exact)
	}
}

// Entry is a path condition whose only fan-out is one exact-table
// membership, prepared for solving one table entry at a time: every
// other positive constraint is applied once, to a base assignment, and
// every negative one is evaluated against the live state once. Solve
// then binds the fan-out field to an entry's key and applies the
// negations, which yields exactly the assignment the whole enumeration
// (ConcretizeArena) yields for that key: positive constraints narrow
// each assignment independently and commute, and negative ones run
// after all of them in both.
type Entry struct {
	base  Assignment
	ok    bool // false: the other positive constraints fail, no entry solves
	field appir.Field
	negs  []negation
	st    *appir.State
}

// NewEntry prepares conds, whose one positive table membership must be
// field f's in table, for per-entry solving against st. The arena serves
// only the preparation.
func NewEntry(conds []appir.Cond, st *appir.State, ar *Arena, table string, f appir.Field) (e Entry) {
	e.field, e.st = f, st
	work := append(ar.work[:0], ar.get())
	ar.work = work
	for _, c := range conds {
		if !c.Want {
			e.negs = append(e.negs, negationOf(c.Expr, st))
			continue
		}
		if in, ok := c.Expr.(appir.InTable); ok && in.Table == table {
			continue // the fan-out: Solve binds it per entry
		}
		var err error
		if work, err = applyPositive(work, c.Expr, st, ar); err != nil || len(work) == 0 {
			ar.putAll(work)
			return e
		}
	}
	e.base, e.ok = *work[0], true
	ar.putAll(work)
	return e
}

// Solve writes into a the assignment under which the condition holds
// for the table entry at key, and reports false when none does.
func (e *Entry) Solve(key appir.Value, a *Assignment) bool {
	if !e.ok {
		return false
	}
	*a = e.base
	if !a.bindExact(e.field, key) {
		return false
	}
	for i := range e.negs {
		if !e.negs[i].apply(a, e.st) {
			return false
		}
	}
	return true
}

// filterMap keeps the assignments passing keep (which may narrow them
// in place) and recycles the rest, reusing the input slice's backing
// array.
func filterMap(work []*Assignment, ar *Arena, keep func(*Assignment) bool) []*Assignment {
	out := work[:0]
	for _, a := range work {
		if keep(a) {
			out = append(out, a)
		} else {
			ar.put(a)
		}
	}
	return out
}
