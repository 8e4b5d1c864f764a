package appir

import (
	"strings"
	"testing"

	"floodguard/internal/netpkt"
)

// TestNodeStrings sweeps every IR node's renderer: diagnostics print
// path conditions and rule templates constantly, so the forms must stay
// readable and total.
func TestNodeStrings(t *testing.T) {
	mac := MACValue(netpkt.MustMAC("00:00:00:00:00:01"))
	exprs := []struct {
		give Expr
		want string
	}{
		{FieldRef{F: FEthDst}, "pkt.dl_dst"},
		{Const{V: mac}, "00:00:00:00:00:01"},
		{ScalarRef{Name: "vip"}, "g.vip"},
		{Eq{A: FieldRef{F: FTpDst}, B: Const{V: U16Value(80)}}, "(pkt.tp_dst == 80)"},
		{And{A: ScalarRef{Name: "a"}, B: ScalarRef{Name: "b"}}, "(g.a and g.b)"},
		{Or{A: ScalarRef{Name: "a"}, B: ScalarRef{Name: "b"}}, "(g.a or g.b)"},
		{Not{A: ScalarRef{Name: "a"}}, "(not g.a)"},
		{InTable{Table: "t", Key: FieldRef{F: FEthSrc}}, "(pkt.dl_src in g.t)"},
		{InPrefixTable{Table: "r", Key: FieldRef{F: FNwDst}}, "(pkt.nw_dst in-prefixes g.r)"},
		{Lookup{Table: "t", Key: FieldRef{F: FEthSrc}}, "g.t[pkt.dl_src]"},
		{LookupPrefix{Table: "r", Key: FieldRef{F: FNwDst}}, "g.r[lpm pkt.nw_dst]"},
		{HighBit{A: FieldRef{F: FNwSrc}}, "highbit(pkt.nw_src)"},
	}
	for _, tt := range exprs {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%T.String() = %q, want %q", tt.give, got, tt.want)
		}
	}

	stmts := []struct {
		give Stmt
		frag string
	}{
		{Drop{}, "drop"},
		{Learn{Table: "t", Key: FieldRef{F: FEthSrc}, Val: FieldRef{F: FInPort}}, "g.t[pkt.dl_src] = pkt.in_port"},
		{Unlearn{Table: "t", Key: FieldRef{F: FEthSrc}}, "delete g.t[pkt.dl_src]"},
		{SetScalar{Name: "vip", Val: Const{V: U16Value(1)}}, "g.vip = 1"},
		{PacketOut{Actions: []ActionTemplate{ActFlood{}}}, "packet_out[flood]"},
		{If{Cond: ScalarRef{Name: "x"}, Then: []Stmt{Drop{}}, Else: []Stmt{Drop{}}}, "if g.x"},
		{Install{Rule: RuleTemplate{
			Match:    []MatchField{{F: FNwSrc, Val: Const{V: IPValue(netpkt.MustIPv4("128.0.0.0"))}, PrefixLen: 1}},
			Priority: 7,
			Actions:  []ActionTemplate{ActOutput{Port: Const{V: U16Value(2)}}},
		}}, "nw_src=128.0.0.0/1"},
	}
	for _, tt := range stmts {
		if got := tt.give.String(); !strings.Contains(got, tt.frag) {
			t.Errorf("%T.String() = %q, missing %q", tt.give, got, tt.frag)
		}
	}

	actions := []struct {
		give ActionTemplate
		want string
	}{
		{ActOutput{Port: Const{V: U16Value(3)}}, "output(3)"},
		{ActFlood{}, "flood"},
		{ActSetNwDst{IP: ScalarRef{Name: "r"}}, "set_nw_dst(g.r)"},
	}
	for _, tt := range actions {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%T.String() = %q, want %q", tt.give, got, tt.want)
		}
	}

	// Drop rule renders as such.
	drop := RuleTemplate{Match: []MatchField{{F: FEthSrc, Val: FieldRef{F: FEthSrc}}}, Priority: 9}
	if got := drop.String(); !strings.Contains(got, "drop") {
		t.Errorf("drop rule renders as %q", got)
	}
}

func TestEvalErrorsPropagate(t *testing.T) {
	env := &Env{State: NewState(), Packet: &netpkt.Packet{}, InPort: 1}

	// Condition evaluating to a non-bool.
	bad := &Program{Name: "bad", Handler: []Stmt{
		If{Cond: FieldRef{F: FTpDst}, Then: []Stmt{Drop{}}},
	}}
	if _, err := Exec(bad, env.State, env.Packet, 1); err == nil {
		t.Error("non-bool condition accepted")
	}

	// Install whose action needs a missing lookup.
	bad2 := &Program{Name: "bad2", Handler: []Stmt{
		Install{Rule: RuleTemplate{
			Match:   []MatchField{{F: FEthDst, Val: FieldRef{F: FEthDst}}},
			Actions: []ActionTemplate{ActOutput{Port: FieldLookup(FEthDst, "missing")}},
		}},
	}}
	if _, err := Exec(bad2, env.State, env.Packet, 1); err == nil {
		t.Error("missing lookup in action accepted")
	}

	// Learn with an erroring key.
	bad3 := &Program{Name: "bad3", Handler: []Stmt{
		Learn{Table: "t", Key: ScalarRef{Name: "unset"}, Val: FieldRef{F: FInPort}},
	}}
	if _, err := Exec(bad3, env.State, env.Packet, 1); err == nil {
		t.Error("erroring learn key accepted")
	}

	// Unlearn with an erroring key.
	bad4 := &Program{Name: "bad4", Handler: []Stmt{
		Unlearn{Table: "t", Key: ScalarRef{Name: "unset"}},
	}}
	if _, err := Exec(bad4, env.State, env.Packet, 1); err == nil {
		t.Error("erroring unlearn key accepted")
	}

	// SetScalar with an erroring value.
	bad5 := &Program{Name: "bad5", Handler: []Stmt{
		SetScalar{Name: "x", Val: ScalarRef{Name: "unset"}},
	}}
	if _, err := Exec(bad5, env.State, env.Packet, 1); err == nil {
		t.Error("erroring scalar value accepted")
	}
}

func TestStateDumpAndClone(t *testing.T) {
	st := NewState()
	st.Learn("macToPort", MACValue(netpkt.MustMAC("00:00:00:00:00:01")), U16Value(1))
	st.AddPrefix("routes", IPValue(netpkt.MustIPv4("10.0.0.0")), 8, U16Value(2))
	st.SetScalar("vip", IPValue(netpkt.MustIPv4("1.2.3.4")))

	cl := st.Clone()
	if cl.Version() != st.Version() {
		t.Error("clone version differs")
	}
	cl.Learn("macToPort", MACValue(netpkt.MustMAC("00:00:00:00:00:02")), U16Value(2))
	if len(st.tables["macToPort"]) != 1 {
		t.Error("clone mutation leaked into original")
	}
	if got, _ := cl.Scalar("vip"); got.IP() != netpkt.MustIPv4("1.2.3.4") {
		t.Error("clone lost scalar")
	}
	if !cl.InAnyPrefix("routes", IPValue(netpkt.MustIPv4("10.5.5.5"))) {
		t.Error("clone lost prefixes")
	}
}

func TestGlobalDeclHelpers(t *testing.T) {
	p := &Program{
		Name: "x",
		Globals: []GlobalDecl{
			{Name: "a", Kind: GlobalTable, StateSensitive: true},
			{Name: "b", Kind: GlobalScalar},
		},
	}
	if d, ok := p.GlobalByName("a"); !ok || d.Kind != GlobalTable {
		t.Error("GlobalByName(a) failed")
	}
	if _, ok := p.GlobalByName("zz"); ok {
		t.Error("GlobalByName(zz) found phantom")
	}
}
