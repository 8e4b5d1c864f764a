// Package symexec implements the paper's two-phase proactive flow rule
// derivation.
//
// Algorithm 1 (offline): Explore symbolically executes a packet_in
// handler with the input fields AND the global variables symbolized,
// traversing every feasible branch and recording each path's condition
// together with its terminal decision.
//
// Algorithm 2 (runtime): DeriveRules assigns the live values of the
// global variables to the recorded path conditions, keeps only the paths
// whose decision is a Modify State Message (a flow rule install), and
// converts each satisfying assignment into concrete proactive flow rules.
package symexec

import (
	"fmt"

	"floodguard/internal/appir"
	"floodguard/internal/openflow"
	"floodguard/internal/solver"
)

// maxPaths bounds path explosion in pathological programs.
const maxPaths = 4096

// Path is one feasible execution path of a handler.
type Path struct {
	ID    int
	Conds []appir.Cond
	// CondLearns[i] is the number of Learns (in program order) executed
	// before Conds[i] is evaluated. Handlers that mutate state before
	// branching (l2_learning learns the source before testing the
	// destination) make path satisfaction depend on those writes.
	CondLearns []int
	// Installs holds the rule templates of the path's Modify State
	// Messages; empty for pure packet_out / drop paths.
	Installs []appir.RuleTemplate
	// PacketOuts counts packet_out decisions on the path.
	PacketOuts int
	// Drops reports an explicit drop decision.
	Drops bool
	// Learns records the state mutations on the path (used to identify
	// state-sensitive variables).
	Learns []appir.Learn
}

// String renders the path in "condition -> decision" form.
func (p *Path) String() string {
	decision := "noop"
	switch {
	case len(p.Installs) > 0:
		decision = p.Installs[0].String()
	case p.Drops:
		decision = "drop"
	case p.PacketOuts > 0:
		decision = "packet_out"
	}
	return fmt.Sprintf("path %d: %s -> %s", p.ID, appir.CondsString(p.Conds), decision)
}

// Explore is Algorithm 1: it returns every structurally feasible path of
// the program's handler. It is deterministic and state-free — table
// contents stay symbolic — so it can run offline, before any attack.
func Explore(prog *appir.Program) ([]Path, error) {
	e := &explorer{}
	if err := e.walk(prog.Handler, pathState{}, nil); err != nil {
		return nil, fmt.Errorf("symexec %s: %w", prog.Name, err)
	}
	return e.paths, nil
}

type pathState struct {
	conds      []appir.Cond
	condLearns []int
	installs   []appir.RuleTemplate
	packetOuts int
	drops      bool
	learns     []appir.Learn
}

func (s pathState) withCond(c appir.Cond) pathState {
	out := s
	out.conds = append(append([]appir.Cond{}, s.conds...), c)
	out.condLearns = append(append([]int{}, s.condLearns...), len(s.learns))
	return out
}

type explorer struct {
	paths []Path
}

// walk explores stmts; rest is the statement continuation after the
// current block (needed because an If's branches continue into the
// statements that follow it).
func (e *explorer) walk(stmts []appir.Stmt, st pathState, rest [][]appir.Stmt) error {
	if len(stmts) == 0 {
		if len(rest) > 0 {
			return e.walk(rest[0], st, rest[1:])
		}
		if len(e.paths) >= maxPaths {
			return fmt.Errorf("path explosion: more than %d paths", maxPaths)
		}
		e.paths = append(e.paths, Path{
			ID:         len(e.paths),
			Conds:      st.conds,
			CondLearns: st.condLearns,
			Installs:   st.installs,
			PacketOuts: st.packetOuts,
			Drops:      st.drops,
			Learns:     st.learns,
		})
		return nil
	}
	head, tail := stmts[0], stmts[1:]
	switch x := head.(type) {
	case appir.If:
		cont := append([][]appir.Stmt{tail}, rest...)
		for _, alt := range splitCond(x.Cond, true) {
			branch := st
			feasible := true
			for _, c := range alt {
				branch = branch.withCond(c)
			}
			if !solver.Feasible(branch.conds) {
				feasible = false
			}
			if feasible {
				if err := e.walk(x.Then, branch, cont); err != nil {
					return err
				}
			}
		}
		for _, alt := range splitCond(x.Cond, false) {
			branch := st
			for _, c := range alt {
				branch = branch.withCond(c)
			}
			if !solver.Feasible(branch.conds) {
				continue
			}
			if err := e.walk(x.Else, branch, cont); err != nil {
				return err
			}
		}
		return nil
	case appir.Install:
		st.installs = append(append([]appir.RuleTemplate{}, st.installs...), x.Rule)
	case appir.PacketOut:
		st.packetOuts++
	case appir.Drop:
		st.drops = true
	case appir.Learn:
		st.learns = append(append([]appir.Learn{}, st.learns...), x)
	case appir.Unlearn:
		// state deletion doesn't constrain the path; derivation uses the
		// live table contents at runtime regardless
	case appir.SetScalar:
		// scalar writes don't constrain the path
	default:
		return fmt.Errorf("unsupported statement %T", head)
	}
	return e.walk(tail, st, rest)
}

// splitCond decomposes a (possibly compound) condition into disjoint
// alternatives of atomic conjuncts, for the requested truth value.
// Example: not(A and B) -> [ [¬A], [A, ¬B] ].
func splitCond(e appir.Expr, want bool) [][]appir.Cond {
	switch x := e.(type) {
	case appir.Not:
		return splitCond(x.A, !want)
	case appir.And:
		if want {
			var out [][]appir.Cond
			for _, la := range splitCond(x.A, true) {
				for _, lb := range splitCond(x.B, true) {
					out = append(out, concat(la, lb))
				}
			}
			return out
		}
		// ¬(A∧B) = ¬A ∨ (A∧¬B), disjoint.
		var out [][]appir.Cond
		out = append(out, splitCond(x.A, false)...)
		for _, la := range splitCond(x.A, true) {
			for _, lb := range splitCond(x.B, false) {
				out = append(out, concat(la, lb))
			}
		}
		return out
	case appir.Or:
		if want {
			// A ∨ B = A ∨ (¬A∧B), disjoint.
			var out [][]appir.Cond
			out = append(out, splitCond(x.A, true)...)
			for _, la := range splitCond(x.A, false) {
				for _, lb := range splitCond(x.B, true) {
					out = append(out, concat(la, lb))
				}
			}
			return out
		}
		var out [][]appir.Cond
		for _, la := range splitCond(x.A, false) {
			for _, lb := range splitCond(x.B, false) {
				out = append(out, concat(la, lb))
			}
		}
		return out
	default:
		return [][]appir.Cond{{{Expr: e, Want: want}}}
	}
}

func concat(a, b []appir.Cond) []appir.Cond {
	out := make([]appir.Cond, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// StateSensitiveVariables returns the global variables read on any path —
// the superset the paper symbolizes ("all state sensitive variables are
// global variables to the function").
func StateSensitiveVariables(paths []Path) []string {
	seen := make(map[string]bool)
	var order []string
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				order = append(order, n)
			}
		}
	}
	for _, p := range paths {
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
	}
	return order
}

func actionGlobals(a appir.ActionTemplate) []string {
	if e := actionExpr(a); e != nil {
		return appir.UsedGlobals(e)
	}
	return nil
}

// actionExpr returns the expression an action template evaluates against
// the live state, nil for actions that read none.
func actionExpr(a appir.ActionTemplate) appir.Expr {
	switch x := a.(type) {
	case appir.ActOutput:
		return x.Port
	case appir.ActSetNwDst:
		return x.IP
	default:
		return nil
	}
}

// ProactiveRule is one derived rule, traceable to its origin path.
type ProactiveRule struct {
	Rule   appir.ConcreteRule
	PathID int
}

// DeriveRules is Algorithm 2: with the globals now holding their live
// values from st, convert every install-terminated path into concrete
// proactive flow rules. Rules derived from prefix bindings are priority-
// boosted by prefix length so that overlapping prefixes resolve like
// longest-prefix match; penalties from unrepresentable negations push a
// rule below its more specific siblings.
func DeriveRules(paths []Path, st *appir.State) ([]ProactiveRule, error) {
	ar := solver.NewArena()
	results := make([][]ProactiveRule, len(paths))
	for i := range paths {
		var err error
		if results[i], err = derivePath(&paths[i], st, ar); err != nil {
			return nil, err
		}
	}
	return concatRules(results), nil
}

// concatRules flattens per-path results in path order, preserving the
// convention that no rules means a nil slice. A single non-empty result
// is returned as it is.
func concatRules(results [][]ProactiveRule) []ProactiveRule {
	total, last := 0, -1
	for i, r := range results {
		if len(r) > 0 {
			total += len(r)
			last = i
		}
	}
	switch {
	case total == 0:
		return nil
	case total == len(results[last]):
		return results[last]
	}
	out := make([]ProactiveRule, 0, total)
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// DeriveOptions has no fields; it is accepted where callers still pass
// it.
type DeriveOptions struct{}

// DeriveRulesOpts is DeriveRules.
func DeriveRulesOpts(paths []Path, st *appir.State, _ DeriveOptions) ([]ProactiveRule, error) {
	return DeriveRules(paths, st)
}

// derivePath runs Algorithm 2 for one path: concretize its condition
// against the live state and instantiate every install template under
// every satisfying assignment. An entry-shaped path goes one table entry
// at a time (entryDeriver), any other through the whole enumeration.
func derivePath(p *Path, st *appir.State, ar *solver.Arena) ([]ProactiveRule, error) {
	if len(p.Installs) == 0 {
		return nil, nil // only Modify State Message paths (Algorithm 2, line 4)
	}
	table, f, ok := entryShape(p)
	if !ok {
		return instantiate(p, solver.ConcretizeArena(p.Conds, st, ar), st)
	}
	entries := st.TableEntries(table)
	d := newEntryDeriver(p, table, f, st, ar, len(entries))
	for _, e := range entries {
		if err := d.derive(e.Key, e.Val); err != nil {
			return nil, err
		}
	}
	return d.out, nil
}

// instantiate evaluates every install template of p under each of the
// given satisfying assignments, in order.
func instantiate(p *Path, assignments []solver.Assignment, st *appir.State) ([]ProactiveRule, error) {
	var out []ProactiveRule
	if n := len(assignments) * len(p.Installs); n > 0 {
		out = make([]ProactiveRule, 0, n) // every assignment yields at most one rule per template
	}
	ev := newRuleEval(p, st, len(assignments))
	for i := range assignments {
		var err error
		if out, err = ev.instantiate(out, &assignments[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// entryDeriver runs Algorithm 2 for an entry-shaped path (entryShape)
// one entry of its fan-out table at a time: the condition is solved for
// the entry's key in one reused assignment, a lookup of the table reads
// the entry's value instead of probing the state, and the rules are
// appended to one preallocated output. For each key it yields exactly
// the rules a whole enumeration yields for that key, so feeding it the
// table in TableEntries order reproduces a whole solve, order included.
type entryDeriver struct {
	cond solver.Entry
	asg  solver.Assignment
	ev   ruleEval
	out  []ProactiveRule
}

// newEntryDeriver prepares p, whose fan-out is field f over table, for
// n entries' worth of derivation against st.
func newEntryDeriver(p *Path, table string, f appir.Field, st *appir.State, ar *solver.Arena, n int) entryDeriver {
	d := entryDeriver{
		cond: solver.NewEntry(p.Conds, st, ar, table, f),
		ev:   newRuleEval(p, st, n),
	}
	d.ev.table = table
	if n *= len(p.Installs); n > 0 {
		d.out = make([]ProactiveRule, 0, n)
	}
	return d
}

// derive appends the rules of the table entry (key, val) to d.out.
func (d *entryDeriver) derive(key, val appir.Value) error {
	if !d.cond.Solve(key, &d.asg) {
		return nil
	}
	d.ev.val = val
	var err error
	d.out, err = d.ev.instantiate(d.out, &d.asg)
	return err
}

// ruleEval evaluates a path's install templates under its solved
// assignments. The actions of all its rules are cut from one block, and
// each distinct action is boxed into its interface once.
type ruleEval struct {
	p  *Path
	st *appir.State
	// table, when set, names the fan-out table of an entry derivation:
	// a lookup in it reads val, the entry the assignment was solved for.
	table string
	val   appir.Value
	acts  []openflow.Action
	boxed map[openflow.Action]openflow.Action
}

// newRuleEval sizes the action block for n assignments' rules.
func newRuleEval(p *Path, st *appir.State, n int) ruleEval {
	ev := ruleEval{p: p, st: st}
	per := 0
	for _, t := range p.Installs {
		per += len(t.Actions)
	}
	if n *= per; n > 0 {
		ev.acts = make([]openflow.Action, 0, n)
	}
	return ev
}

// instantiate appends to out the rule each install template yields
// under asg.
func (ev *ruleEval) instantiate(out []ProactiveRule, asg *solver.Assignment) ([]ProactiveRule, error) {
	for _, tmpl := range ev.p.Installs {
		rule, ok, err := ev.template(tmpl, asg)
		if err != nil {
			return out, fmt.Errorf("path %d: %w", ev.p.ID, err)
		}
		if ok { // else residual: depends on an unbound field
			out = append(out, ProactiveRule{Rule: rule, PathID: ev.p.ID})
		}
	}
	return out, nil
}

// template evaluates a rule template under a field assignment. ok is
// false when the template reads a field the assignment does not pin.
func (ev *ruleEval) template(t appir.RuleTemplate, asg *solver.Assignment) (appir.ConcreteRule, bool, error) {
	m := openflow.MatchAll()
	// First apply the assignment's own constraints: the path condition is
	// part of the rule's match (e.g. nw_dst == vip). Canonical field
	// order keeps the emitted rule independent of solver internals.
	for _, f := range appir.Fields {
		b, bound := asg.Get(f)
		if !bound {
			continue
		}
		if b.IsPrefix {
			if err := appir.BindMatchField(&m, f, appir.IPValue(b.Prefix), b.PrefixLen); err != nil {
				return appir.ConcreteRule{}, false, err
			}
			continue
		}
		if err := appir.BindMatchField(&m, f, b.Exact, 0); err != nil {
			return appir.ConcreteRule{}, false, err
		}
	}
	// Then the template's explicit match terms.
	for _, mf := range t.Match {
		if fr, ok := mf.Val.(appir.FieldRef); ok && fr.F == mf.F {
			if b, bound := asg.Get(mf.F); bound && b.IsPrefix {
				// Reflexive match on a prefix-bound field: already
				// represented by the assignment's prefix constraint.
				continue
			}
		}
		v, ok, err := ev.bound(mf.Val, asg)
		if err != nil {
			return appir.ConcreteRule{}, false, err
		}
		if !ok {
			return appir.ConcreteRule{}, false, nil
		}
		if err := appir.BindMatchField(&m, mf.F, v, mf.PrefixLen); err != nil {
			return appir.ConcreteRule{}, false, err
		}
	}
	var actions []openflow.Action // a drop rule's stay nil
	if len(t.Actions) > 0 {
		lo := len(ev.acts)
		for _, at := range t.Actions {
			act, ok, err := ev.action(at, asg)
			if err != nil || !ok {
				ev.acts = ev.acts[:lo]
				return appir.ConcreteRule{}, false, err
			}
			ev.acts = append(ev.acts, act)
		}
		actions = ev.acts[lo:len(ev.acts):len(ev.acts)]
	}
	prio := int(t.Priority) + asg.PrefixBits - 2*asg.Penalty
	if prio < 1 {
		prio = 1
	}
	if prio > 0xffff {
		prio = 0xffff
	}
	return appir.ConcreteRule{
		Match:       m,
		Priority:    uint16(prio),
		IdleTimeout: t.IdleTimeout,
		HardTimeout: t.HardTimeout,
		Actions:     actions,
	}, true, nil
}

// bound evaluates an expression where field references resolve via the
// assignment. ok is false if an unpinned field is read.
func (ev *ruleEval) bound(e appir.Expr, asg *solver.Assignment) (appir.Value, bool, error) {
	switch x := e.(type) {
	case appir.FieldRef:
		b, bound := asg.Get(x.F)
		if !bound {
			return appir.Value{}, false, nil
		}
		if b.IsPrefix {
			// Reading a prefix-bound field as a value: use the prefix
			// base (sound for LPM lookups keyed on the bound prefix).
			return appir.IPValue(b.Prefix), true, nil
		}
		return b.Exact, true, nil
	case appir.Const:
		return x.V, true, nil
	case appir.ScalarRef:
		v, ok := ev.st.Scalar(x.Name)
		if !ok {
			return appir.Value{}, false, fmt.Errorf("scalar %s unset", x.Name)
		}
		return v, true, nil
	case appir.Lookup:
		if ev.table != "" && x.Table == ev.table {
			// An entry-shaped path reads its fan-out table only at the
			// fan-out field, which the assignment pins to the entry's key.
			return ev.val, true, nil
		}
		k, ok, err := ev.bound(x.Key, asg)
		if err != nil || !ok {
			return appir.Value{}, ok, err
		}
		v, found := ev.st.LookupTable(x.Table, k)
		if !found {
			return appir.Value{}, false, nil
		}
		return v, true, nil
	case appir.LookupPrefix:
		k, ok, err := ev.bound(x.Key, asg)
		if err != nil || !ok {
			return appir.Value{}, ok, err
		}
		v, found := ev.st.LookupLPM(x.Table, k)
		if !found {
			return appir.Value{}, false, nil
		}
		return v, true, nil
	default:
		return appir.Value{}, false, fmt.Errorf("unsupported template expression %s", e)
	}
}

func (ev *ruleEval) action(at appir.ActionTemplate, asg *solver.Assignment) (openflow.Action, bool, error) {
	switch x := at.(type) {
	case appir.ActOutput:
		v, ok, err := ev.bound(x.Port, asg)
		if err != nil || !ok {
			return nil, ok, err
		}
		return box(ev, openflow.Output(v.U16())), true, nil
	case appir.ActFlood:
		return box(ev, openflow.Output(openflow.PortFlood)), true, nil
	case appir.ActSetNwDst:
		v, ok, err := ev.bound(x.IP, asg)
		if err != nil || !ok {
			return nil, ok, err
		}
		return box(ev, openflow.ActionSetNwDst{IP: v.IP()}), true, nil
	default:
		return nil, false, fmt.Errorf("unsupported action template %T", at)
	}
}

// box returns act as an openflow.Action, boxing each distinct action
// once per ruleEval: the map probe converts act without escaping it.
func box[A openflow.Action](ev *ruleEval, act A) openflow.Action {
	if b, ok := ev.boxed[act]; ok {
		return b
	}
	if ev.boxed == nil {
		ev.boxed = make(map[openflow.Action]openflow.Action)
	}
	b := openflow.Action(act)
	ev.boxed[b] = b
	return b
}
