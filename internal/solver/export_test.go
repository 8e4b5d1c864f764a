package solver

import (
	"math/bits"

	"floodguard/internal/appir"
	"floodguard/internal/netpkt"
)

// Field returns the binding for f (the zero Binding when unconstrained).
func (a *Assignment) Field(f appir.Field) Binding {
	b, _ := a.Get(f)
	return b
}

// Bound reports whether f is constrained.
func (a *Assignment) Bound(f appir.Field) bool {
	return int(f) < numFields && a.bound&(1<<f) != 0
}

// Len returns the number of bound fields.
func (a *Assignment) Len() int { return bits.OnesCount16(a.bound) }

// Concretize is ConcretizeArena with a fresh arena.
func Concretize(conds []appir.Cond, st *appir.State) []Assignment {
	return ConcretizeArena(conds, st, NewArena())
}

// Satisfies reports whether a concrete packet (on inPort) meets every
// binding of the assignment — used by property tests to validate
// soundness of concretization.
func (a *Assignment) Satisfies(p *netpkt.Packet, inPort uint16) bool {
	for _, f := range appir.Fields {
		b, bound := a.Get(f)
		if !bound {
			continue
		}
		v := appir.FieldOf(p, inPort, f)
		if b.IsPrefix {
			if v.Kind != appir.KindIP || !v.IP().InPrefix(b.Prefix, b.PrefixLen) {
				return false
			}
			continue
		}
		if v != b.Exact {
			return false
		}
	}
	return true
}
