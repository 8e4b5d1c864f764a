package symexec

import (
	"fmt"

	"floodguard/internal/appir"
	"floodguard/internal/netpkt"
)

// MatchPath finds the unique path whose condition a concrete packet
// satisfies under the given state — the concrete-symbolic correspondence
// used in soundness tests. Learns that the handler executes before a
// condition are replayed on a cloned state so that self-referential
// packets (e.g. src == dst under l2_learning) resolve like the concrete
// interpreter. The given state is never mutated.
func MatchPath(paths []Path, st *appir.State, pkt *netpkt.Packet, inPort uint16) (*Path, error) {
	var found *Path
	for i := range paths {
		p := &paths[i]
		sat := true
		env := &appir.Env{State: st, Packet: pkt, InPort: inPort}
		applied := 0
		for ci, c := range p.Conds {
			for applied < p.CondLearns[ci] && applied < len(p.Learns) {
				l := p.Learns[applied]
				key, err := appir.EvalExpr(l.Key, env)
				if err != nil {
					return nil, err
				}
				val, err := appir.EvalExpr(l.Val, env)
				if err != nil {
					return nil, err
				}
				if env.State == st {
					env.State = st.Clone()
				}
				env.State.Learn(l.Table, key, val)
				applied++
			}
			v, err := appir.EvalExpr(c.Expr, env)
			if err != nil {
				return nil, err
			}
			if v.Bool() != c.Want {
				sat = false
				break
			}
		}
		if sat {
			if found != nil {
				return nil, fmt.Errorf("packet satisfies both path %d and path %d", found.ID, paths[i].ID)
			}
			found = &paths[i]
		}
	}
	if found == nil {
		return nil, fmt.Errorf("packet satisfies no path")
	}
	return found, nil
}
