package symexec

import (
	"reflect"
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/netpkt"
	"floodguard/internal/solver"
)

// fuzzGen decodes a byte stream into an appir handler: a deterministic
// grammar-directed generator, so every corpus entry maps to exactly one
// program and crashes reproduce.
type fuzzGen struct {
	data   []byte
	pos    int
	budget int // total statements + conditions we are willing to emit
}

func (g *fuzzGen) next() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

var (
	fuzzMACFields = []appir.Field{appir.FEthSrc, appir.FEthDst}
	fuzzIPFields  = []appir.Field{appir.FNwSrc, appir.FNwDst}
	fuzzU16Fields = []appir.Field{appir.FInPort, appir.FEthType, appir.FTpSrc, appir.FTpDst}
	fuzzTables    = []string{"fza", "fzb"}
)

func (g *fuzzGen) cond(depth int) appir.Expr {
	g.budget--
	b := g.next()
	k := int(b) % 8
	if depth <= 0 && k >= 6 {
		k %= 6
	}
	switch k {
	case 0:
		f := fuzzMACFields[int(g.next())%len(fuzzMACFields)]
		return appir.FieldEq(f, appir.MACValue(netpkt.MAC{0, 0, 0, 0, 0, g.next()}))
	case 1:
		f := fuzzU16Fields[int(g.next())%len(fuzzU16Fields)]
		return appir.FieldEq(f, appir.U16Value(uint16(g.next())))
	case 2:
		f := fuzzMACFields[int(g.next())%len(fuzzMACFields)]
		return appir.FieldIn(f, fuzzTables[int(g.next())%len(fuzzTables)])
	case 3:
		return appir.FieldInPrefixes(fuzzIPFields[int(g.next())%len(fuzzIPFields)], "fzp")
	case 4:
		return appir.HighBit{A: appir.FieldRef{F: fuzzIPFields[int(g.next())%len(fuzzIPFields)]}}
	case 5:
		f := fuzzU16Fields[int(g.next())%len(fuzzU16Fields)]
		return appir.FieldEqScalar(f, "fs0")
	case 6:
		return appir.Not{A: g.cond(depth - 1)}
	default:
		a, b2 := g.cond(depth-1), g.cond(depth-1)
		if g.next()%2 == 0 {
			return appir.And{A: a, B: b2}
		}
		return appir.Or{A: a, B: b2}
	}
}

func (g *fuzzGen) template() appir.RuleTemplate {
	f := fuzzMACFields[int(g.next())%len(fuzzMACFields)]
	var act appir.ActionTemplate
	switch g.next() % 4 {
	case 0:
		act = appir.ActFlood{}
	case 1:
		act = appir.ActOutput{Port: appir.Const{V: appir.U16Value(uint16(g.next())%48 + 1)}}
	case 2:
		act = appir.ActOutput{Port: appir.FieldLookup(f, fuzzTables[int(g.next())%len(fuzzTables)])}
	default:
		act = appir.ActOutput{Port: appir.ScalarRef{Name: "fs0"}}
	}
	return appir.RuleTemplate{
		Match:       []appir.MatchField{{F: f, Val: appir.FieldRef{F: f}}},
		Priority:    uint16(g.next())%100 + 1,
		IdleTimeout: uint16(g.next())%30 + 1,
		Actions:     []appir.ActionTemplate{act},
	}
}

func (g *fuzzGen) stmts(depth int) []appir.Stmt {
	n := int(g.next())%3 + 1
	var out []appir.Stmt
	for i := 0; i < n && g.budget > 0; i++ {
		g.budget--
		k := int(g.next()) % 6
		if depth <= 0 && k == 0 {
			k = 1
		}
		switch k {
		case 0:
			out = append(out, appir.If{
				Cond: g.cond(2),
				Then: g.stmts(depth - 1),
				Else: g.stmts(depth - 1),
			})
		case 1:
			out = append(out, appir.Install{Rule: g.template()})
		case 2:
			out = append(out, appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}})
		case 3:
			out = append(out, appir.Learn{
				Table: fuzzTables[int(g.next())%len(fuzzTables)],
				Key:   appir.FieldRef{F: appir.FEthSrc},
				Val:   appir.Const{V: appir.U16Value(uint16(g.next())%48 + 1)},
			})
		case 4:
			out = append(out, appir.Drop{})
		default:
			out = append(out, appir.SetScalar{Name: "fs0", Val: appir.Const{V: appir.U16Value(uint16(g.next()))}})
		}
	}
	return out
}

func fuzzState() *appir.State {
	st := appir.NewState()
	st.SetScalar("fs0", appir.U16Value(7))
	for _, tbl := range fuzzTables {
		for i := 0; i < 6; i++ {
			st.Learn(tbl, appir.MACValue(netpkt.MAC{0, 0, 0, 0, 0, byte(i + 1)}), appir.U16Value(uint16(i+1)))
		}
	}
	st.AddPrefix("fzp", appir.IPValue(netpkt.MustIPv4("10.0.0.0")), 8, appir.U16Value(1))
	st.AddPrefix("fzp", appir.IPValue(netpkt.MustIPv4("192.168.0.0")), 16, appir.U16Value(2))
	return st
}

// FuzzExplore drives Algorithm 1 and Algorithm 2 end to end over
// generated handlers, checking the structural invariants that the rest
// of the system leans on: every emitted path is feasible and internally
// consistent, and memoized derivation agrees with the direct call
// before and after a state mutation.
func FuzzExplore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 7, 1, 2, 0, 6, 3, 0, 1, 4, 5, 0, 2, 2, 1})
	f.Add([]byte{6, 7, 0, 1, 3, 2, 0, 0, 5, 1, 0, 4, 2, 2, 7, 7, 6, 1, 0, 3, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data, budget: 60}
		prog := &appir.Program{Name: "fuzz", Handler: g.stmts(3)}

		paths, err := Explore(prog)
		if err != nil {
			return // path explosion is a legal outcome, not a bug
		}
		if len(paths) > maxPaths {
			t.Fatalf("%d paths exceeds maxPaths", len(paths))
		}
		for i := range paths {
			p := &paths[i]
			if p.ID != i {
				t.Fatalf("path %d carries ID %d", i, p.ID)
			}
			if len(p.CondLearns) != len(p.Conds) {
				t.Fatalf("path %d: %d CondLearns for %d Conds", i, len(p.CondLearns), len(p.Conds))
			}
			if !solver.Feasible(p.Conds) {
				t.Fatalf("Explore emitted infeasible path %d: %s", i, p.String())
			}
		}

		st := fuzzState()
		if _, err := DeriveRules(paths, st); err != nil {
			return
		}

		m := NewMemo(paths)
		for round := 0; round < 2; round++ {
			got, err := m.Derive(st, DeriveOptions{})
			if err != nil {
				t.Fatalf("memo round %d: %v", round, err)
			}
			want, err := DeriveRules(paths, st)
			if err != nil {
				t.Fatalf("direct round %d: %v", round, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: memo diverges from direct (%d vs %d rules)",
					round, len(got), len(want))
			}
			st.Learn(fuzzTables[0], appir.MACValue(netpkt.MAC{9, 0, 0, 0, 0, byte(round)}),
				appir.U16Value(uint16(round)+1))
		}
	})
}
