package appir

import (
	"fmt"
	"strings"
)

// Stmt is one statement of a packet_in handler.
type Stmt interface {
	fmt.Stringer
	stmtNode()
}

// If branches on Cond.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (If) stmtNode() {}
func (s If) String() string {
	return fmt.Sprintf("if %s { %s } else { %s }", s.Cond, stmtsString(s.Then), stmtsString(s.Else))
}

// MatchField is one equality/prefix term of a rule template's match: the
// installed rule matches packets whose field F equals Val (evaluated at
// install time). For IP fields PrefixLen restricts the match to the top
// PrefixLen bits (32 or 0 means exact).
type MatchField struct {
	F         Field
	Val       Expr
	PrefixLen int
}

// ActionTemplate is one action of a rule template or packet_out,
// evaluated at decision time.
type ActionTemplate interface {
	fmt.Stringer
	actionNode()
}

// ActOutput forwards to the port Val evaluates to.
type ActOutput struct{ Port Expr }

func (ActOutput) actionNode()      {}
func (a ActOutput) String() string { return fmt.Sprintf("output(%s)", a.Port) }

// ActFlood floods out of every port except the ingress.
type ActFlood struct{}

func (ActFlood) actionNode()      {}
func (a ActFlood) String() string { return "flood" }

// ActSetNwDst rewrites the destination IP before output.
type ActSetNwDst struct{ IP Expr }

func (ActSetNwDst) actionNode()      {}
func (a ActSetNwDst) String() string { return fmt.Sprintf("set_nw_dst(%s)", a.IP) }

// RuleTemplate describes the flow rule an Install statement sends: the
// Modify State Message of the paper's Algorithm 2.
type RuleTemplate struct {
	Match       []MatchField
	Priority    uint16
	IdleTimeout uint16 // seconds
	HardTimeout uint16 // seconds
	// Actions empty = drop rule.
	Actions []ActionTemplate
}

// String renders the template.
func (r RuleTemplate) String() string {
	matches := make([]string, len(r.Match))
	for i, m := range r.Match {
		if m.F.Kind() == KindIP && m.PrefixLen > 0 && m.PrefixLen < 32 {
			matches[i] = fmt.Sprintf("%s=%s/%d", m.F, m.Val, m.PrefixLen)
		} else {
			matches[i] = fmt.Sprintf("%s=%s", m.F, m.Val)
		}
	}
	acts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		acts[i] = a.String()
	}
	actStr := "drop"
	if len(acts) > 0 {
		actStr = strings.Join(acts, ",")
	}
	return fmt.Sprintf("install[prio=%d %s -> %s]", r.Priority, strings.Join(matches, ","), actStr)
}

// Install sends a flow_mod built from the template, and also forwards the
// triggering packet through the same actions (the POX idiom of
// ofp_flow_mod with buffer_id).
type Install struct{ Rule RuleTemplate }

func (Install) stmtNode()        {}
func (s Install) String() string { return s.Rule.String() }

// PacketOut forwards the triggering packet without installing state.
type PacketOut struct{ Actions []ActionTemplate }

func (PacketOut) stmtNode() {}
func (s PacketOut) String() string {
	acts := make([]string, len(s.Actions))
	for i, a := range s.Actions {
		acts[i] = a.String()
	}
	return fmt.Sprintf("packet_out[%s]", strings.Join(acts, ","))
}

// Learn writes g.Table[Key] = Val — the state mutation that makes a
// global variable state-sensitive.
type Learn struct {
	Table string
	Key   Expr
	Val   Expr
}

func (Learn) stmtNode()        {}
func (s Learn) String() string { return fmt.Sprintf("g.%s[%s] = %s", s.Table, s.Key, s.Val) }

// Unlearn deletes g.Table[Key] — the forgetting counterpart of Learn
// (aging out a binding, withdrawing a route).
type Unlearn struct {
	Table string
	Key   Expr
}

func (Unlearn) stmtNode()        {}
func (s Unlearn) String() string { return fmt.Sprintf("delete g.%s[%s]", s.Table, s.Key) }

// SetScalar writes a named global scalar.
type SetScalar struct {
	Name string
	Val  Expr
}

func (SetScalar) stmtNode()        {}
func (s SetScalar) String() string { return fmt.Sprintf("g.%s = %s", s.Name, s.Val) }

// Drop discards the triggering packet (no flow rule, no packet_out).
type Drop struct{}

func (Drop) stmtNode()      {}
func (Drop) String() string { return "drop" }

func stmtsString(ss []Stmt) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

// GlobalKind classifies a global variable declaration.
type GlobalKind uint8

// Global variable kinds.
const (
	GlobalTable GlobalKind = iota + 1
	GlobalPrefixTable
	GlobalScalar
)

// GlobalDecl declares one global variable of a program, with the
// description column of the paper's Table III.
type GlobalDecl struct {
	Name        string
	Kind        GlobalKind
	KeyKind     Kind // tables only
	ValKind     Kind
	Description string
	// StateSensitive marks variables whose value changes with network
	// state; all globals used in a handler are treated as potentially
	// state-sensitive by the analyzer (the paper symbolizes the superset).
	StateSensitive bool
}

// Program is one controller application's packet_in handler plus its
// global variable declarations.
type Program struct {
	Name    string
	Globals []GlobalDecl
	Handler []Stmt
}

// GlobalByName returns the declaration of a named global.
func (p *Program) GlobalByName(name string) (GlobalDecl, bool) {
	for _, g := range p.Globals {
		if g.Name == name {
			return g, true
		}
	}
	return GlobalDecl{}, false
}
