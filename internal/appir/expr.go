package appir

import (
	"fmt"
	"strings"
)

// Expr is a boolean- or value-producing expression over the packet_in
// event's fields and the program's global variables.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// FieldRef reads a packet field.
type FieldRef struct{ F Field }

func (FieldRef) exprNode()        {}
func (e FieldRef) String() string { return "pkt." + e.F.String() }

// Const is a literal value.
type Const struct{ V Value }

func (Const) exprNode()        {}
func (e Const) String() string { return e.V.String() }

// ScalarRef reads a named global scalar (state-sensitive: its value may
// change between packet_in events).
type ScalarRef struct{ Name string }

func (ScalarRef) exprNode()        {}
func (e ScalarRef) String() string { return "g." + e.Name }

// Eq compares two expressions for equality.
type Eq struct{ A, B Expr }

func (Eq) exprNode()        {}
func (e Eq) String() string { return fmt.Sprintf("(%s == %s)", e.A, e.B) }

// And is logical conjunction.
type And struct{ A, B Expr }

func (And) exprNode()        {}
func (e And) String() string { return fmt.Sprintf("(%s and %s)", e.A, e.B) }

// Or is logical disjunction.
type Or struct{ A, B Expr }

func (Or) exprNode()        {}
func (e Or) String() string { return fmt.Sprintf("(%s or %s)", e.A, e.B) }

// Not is logical negation.
type Not struct{ A Expr }

func (Not) exprNode()        {}
func (e Not) String() string { return fmt.Sprintf("(not %s)", e.A) }

// InTable tests membership of Key in a named exact-match global table.
type InTable struct {
	Table string
	Key   Expr
}

func (InTable) exprNode()        {}
func (e InTable) String() string { return fmt.Sprintf("(%s in g.%s)", e.Key, e.Table) }

// InPrefixTable tests whether Key (an IP) falls in any prefix of a named
// longest-prefix-match global table.
type InPrefixTable struct {
	Table string
	Key   Expr
}

func (InPrefixTable) exprNode() {}
func (e InPrefixTable) String() string {
	return fmt.Sprintf("(%s in-prefixes g.%s)", e.Key, e.Table)
}

// Lookup reads the value bound to Key in a named exact-match table. Its
// value is only defined on paths where the corresponding InTable holds.
type Lookup struct {
	Table string
	Key   Expr
}

func (Lookup) exprNode()        {}
func (e Lookup) String() string { return fmt.Sprintf("g.%s[%s]", e.Table, e.Key) }

// LookupPrefix reads the value of the longest matching prefix for Key.
type LookupPrefix struct {
	Table string
	Key   Expr
}

func (LookupPrefix) exprNode()        {}
func (e LookupPrefix) String() string { return fmt.Sprintf("g.%s[lpm %s]", e.Table, e.Key) }

// HighBit tests the most significant bit of an IP-valued expression (the
// paper's ip_balancer splits clients on it).
type HighBit struct{ A Expr }

func (HighBit) exprNode()        {}
func (e HighBit) String() string { return fmt.Sprintf("highbit(%s)", e.A) }

// Convenience constructors keep app definitions readable.

// FieldEq builds pkt.f == v.
func FieldEq(f Field, v Value) Expr { return Eq{A: FieldRef{F: f}, B: Const{V: v}} }

// FieldEqScalar builds pkt.f == g.name.
func FieldEqScalar(f Field, name string) Expr { return Eq{A: FieldRef{F: f}, B: ScalarRef{Name: name}} }

// FieldIn builds pkt.f in g.table.
func FieldIn(f Field, table string) Expr { return InTable{Table: table, Key: FieldRef{F: f}} }

// FieldInPrefixes builds pkt.f in-prefixes g.table.
func FieldInPrefixes(f Field, table string) Expr {
	return InPrefixTable{Table: table, Key: FieldRef{F: f}}
}

// FieldLookup builds g.table[pkt.f].
func FieldLookup(f Field, table string) Expr { return Lookup{Table: table, Key: FieldRef{F: f}} }

// FieldLookupPrefix builds g.table[lpm pkt.f].
func FieldLookupPrefix(f Field, table string) Expr {
	return LookupPrefix{Table: table, Key: FieldRef{F: f}}
}

// UsedGlobals returns the names of the global tables, prefix tables and
// scalars referenced by e — the "find_global_variables" step of the
// paper's Algorithm 1.
func UsedGlobals(e Expr) []string {
	seen := make(map[string]bool)
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Eq:
			walk(x.A)
			walk(x.B)
		case And:
			walk(x.A)
			walk(x.B)
		case Or:
			walk(x.A)
			walk(x.B)
		case Not:
			walk(x.A)
		case HighBit:
			walk(x.A)
		case InTable:
			seen[x.Table] = true
			walk(x.Key)
		case InPrefixTable:
			seen[x.Table] = true
			walk(x.Key)
		case Lookup:
			seen[x.Table] = true
			walk(x.Key)
		case LookupPrefix:
			seen[x.Table] = true
			walk(x.Key)
		case ScalarRef:
			seen[x.Name] = true
		}
	}
	walk(e)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	return out
}

// KeyedOnly reports whether every read of the global named table inside
// e is a membership test or lookup on the exact table keyed directly by
// pkt.f. Such an expression can observe the one entry at the packet's f
// value and nothing else of the table, which is what lets a derivation
// be re-solved entry by entry.
func KeyedOnly(e Expr, table string, f Field) bool {
	byField := func(t string, key Expr) bool {
		if t != table {
			return KeyedOnly(key, table, f)
		}
		fr, ok := key.(FieldRef)
		return ok && fr.F == f
	}
	switch x := e.(type) {
	case Eq:
		return KeyedOnly(x.A, table, f) && KeyedOnly(x.B, table, f)
	case And:
		return KeyedOnly(x.A, table, f) && KeyedOnly(x.B, table, f)
	case Or:
		return KeyedOnly(x.A, table, f) && KeyedOnly(x.B, table, f)
	case Not:
		return KeyedOnly(x.A, table, f)
	case HighBit:
		return KeyedOnly(x.A, table, f)
	case InTable:
		return byField(x.Table, x.Key)
	case Lookup:
		return byField(x.Table, x.Key)
	case InPrefixTable:
		return x.Table != table && KeyedOnly(x.Key, table, f)
	case LookupPrefix:
		return x.Table != table && KeyedOnly(x.Key, table, f)
	case ScalarRef:
		return x.Name != table
	default:
		return true // FieldRef, Const
	}
}

// CondsString renders a conjunction of (expr, want) pairs — a path
// condition in the paper's sense.
func CondsString(conds []Cond) string {
	if len(conds) == 0 {
		return "true"
	}
	parts := make([]string, len(conds))
	for i, c := range conds {
		if c.Want {
			parts[i] = c.Expr.String()
		} else {
			parts[i] = fmt.Sprintf("(not %s)", c.Expr)
		}
	}
	return strings.Join(parts, " and ")
}

// Cond is one conjunct of a path condition: Expr must evaluate to Want.
type Cond struct {
	Expr Expr
	Want bool
}
