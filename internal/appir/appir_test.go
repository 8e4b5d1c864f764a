package appir

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

func TestValueRoundTrips(t *testing.T) {
	mac := netpkt.MustMAC("00:11:22:33:44:55")
	if got := MACValue(mac).MAC(); got != mac {
		t.Errorf("MAC round trip = %v", got)
	}
	ip := netpkt.MustIPv4("10.1.2.3")
	if got := IPValue(ip).IP(); got != ip {
		t.Errorf("IP round trip = %v", got)
	}
	if got := U16Value(65535).U16(); got != 65535 {
		t.Errorf("U16 round trip = %d", got)
	}
	if got := U8Value(255).U8(); got != 255 {
		t.Errorf("U8 round trip = %d", got)
	}
	if !BoolValue(true).Bool() || BoolValue(false).Bool() {
		t.Error("Bool round trip broken")
	}
	var zero Value
	if zero.Kind != KindNone || zero.String() != "<none>" {
		t.Error("zero value misbehaves")
	}
}

func TestFieldOfCoversAllFields(t *testing.T) {
	p := netpkt.Packet{
		EthSrc:  netpkt.MustMAC("00:00:00:00:00:01"),
		EthDst:  netpkt.MustMAC("00:00:00:00:00:02"),
		EthType: netpkt.EtherTypeIPv4,
		ARPOp:   0,
		NwSrc:   netpkt.MustIPv4("10.0.0.1"),
		NwDst:   netpkt.MustIPv4("10.0.0.2"),
		NwProto: netpkt.ProtoTCP,
		NwTOS:   32,
		TpSrc:   1234,
		TpDst:   80,
	}
	tests := []struct {
		f    Field
		want Value
	}{
		{FInPort, U16Value(7)},
		{FEthSrc, MACValue(p.EthSrc)},
		{FEthDst, MACValue(p.EthDst)},
		{FEthType, U16Value(p.EthType)},
		{FNwSrc, IPValue(p.NwSrc)},
		{FNwDst, IPValue(p.NwDst)},
		{FNwProto, U8Value(p.NwProto)},
		{FNwTOS, U8Value(p.NwTOS)},
		{FTpSrc, U16Value(p.TpSrc)},
		{FTpDst, U16Value(p.TpDst)},
	}
	for _, tt := range tests {
		if got := FieldOf(&p, 7, tt.f); got != tt.want {
			t.Errorf("FieldOf(%v) = %v, want %v", tt.f, got, tt.want)
		}
	}
	for _, f := range Fields {
		if f.Kind() == KindNone {
			t.Errorf("field %v has no kind", f)
		}
		if !strings.Contains(f.String(), "_") {
			t.Errorf("field %v has odd name %q", f, f.String())
		}
	}
}

func TestStateVersioning(t *testing.T) {
	s := NewState()
	v0 := s.Version()
	k := MACValue(netpkt.MustMAC("00:00:00:00:00:0a"))
	s.Learn("macToPort", k, U16Value(1))
	if s.Version() == v0 {
		t.Error("Learn did not bump version")
	}
	v1 := s.Version()
	s.Learn("macToPort", k, U16Value(1)) // no-op
	if s.Version() != v1 {
		t.Error("no-op Learn bumped version")
	}
	s.Learn("macToPort", k, U16Value(2)) // changed value
	if s.Version() == v1 {
		t.Error("value change did not bump version")
	}
	v2 := s.Version()
	s.Unlearn("macToPort", k)
	if s.Version() == v2 {
		t.Error("Unlearn did not bump version")
	}
	s.Unlearn("macToPort", k) // absent: no-op
	if s.Version() != v2+1 {
		t.Error("no-op Unlearn bumped version")
	}
}

func TestStateScalarVersioning(t *testing.T) {
	s := NewState()
	s.SetScalar("vip", IPValue(netpkt.MustIPv4("10.0.0.1")))
	v := s.Version()
	s.SetScalar("vip", IPValue(netpkt.MustIPv4("10.0.0.1")))
	if s.Version() != v {
		t.Error("no-op SetScalar bumped version")
	}
	s.SetScalar("vip", IPValue(netpkt.MustIPv4("10.0.0.2")))
	if s.Version() == v {
		t.Error("scalar change did not bump version")
	}
	got, ok := s.Scalar("vip")
	if !ok || got.IP() != netpkt.MustIPv4("10.0.0.2") {
		t.Errorf("Scalar = %v, %t", got, ok)
	}
	if _, ok := s.Scalar("missing"); ok {
		t.Error("missing scalar found")
	}
}

func TestStateLPM(t *testing.T) {
	s := NewState()
	s.AddPrefix("routes", IPValue(netpkt.MustIPv4("10.0.0.0")), 8, U16Value(1))
	s.AddPrefix("routes", IPValue(netpkt.MustIPv4("10.1.0.0")), 16, U16Value(2))
	tests := []struct {
		ip   string
		want uint16
		ok   bool
	}{
		{"10.1.2.3", 2, true}, // longest prefix wins
		{"10.2.2.3", 1, true},
		{"11.0.0.1", 0, false},
	}
	for _, tt := range tests {
		v, ok := s.LookupLPM("routes", IPValue(netpkt.MustIPv4(tt.ip)))
		if ok != tt.ok || (ok && v.U16() != tt.want) {
			t.Errorf("LookupLPM(%s) = %v,%t; want %d,%t", tt.ip, v, ok, tt.want, tt.ok)
		}
	}
	if !s.InAnyPrefix("routes", IPValue(netpkt.MustIPv4("10.9.9.9"))) {
		t.Error("InAnyPrefix false for covered address")
	}
	v := s.Version()
	s.AddPrefix("routes", IPValue(netpkt.MustIPv4("10.1.0.0")), 16, U16Value(2)) // no-op
	if s.Version() != v {
		t.Error("no-op AddPrefix bumped version")
	}
	s.RemovePrefix("routes", IPValue(netpkt.MustIPv4("10.1.0.0")), 16)
	got, _ := s.LookupLPM("routes", IPValue(netpkt.MustIPv4("10.1.2.3")))
	if got.U16() != 1 {
		t.Errorf("after RemovePrefix, LPM = %v, want 1", got)
	}
}

func TestTableEntriesDeterministic(t *testing.T) {
	s := NewState()
	for i := 10; i > 0; i-- {
		s.Learn("t", U16Value(uint16(i)), U16Value(uint16(i*10)))
	}
	es := s.TableEntries("t")
	for i := 1; i < len(es); i++ {
		if es[i].Key.Bits <= es[i-1].Key.Bits {
			t.Fatalf("entries not sorted at %d", i)
		}
	}

	// Mixed kinds, learned in a seeded random order (and with equal Bits
	// under different kinds): the snapshot must list every entry exactly
	// in Value.Compare order — kind first, then bits — whatever the
	// insertion or map order.
	var keys []Value
	for i := 0; i < 200; i++ {
		b := uint64(i * 7919 % 1000)
		keys = append(keys,
			MACValue(netpkt.MACFromUint64(b)), IPValue(netpkt.IPv4(b)), U16Value(uint16(b)))
	}
	vals := make(map[Value]Value, len(keys))
	mixed := NewState()
	for i, j := range rand.New(rand.NewSource(0xF100D)).Perm(len(keys)) {
		vals[keys[j]] = U16Value(uint16(i))
		mixed.Learn("m", keys[j], vals[keys[j]])
	}
	want := slices.Clone(keys)
	sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
	got := mixed.TableEntries("m")
	if len(got) != len(want) {
		t.Fatalf("mixed table: %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Key != want[i] || e.Val != vals[e.Key] {
			t.Fatalf("mixed table entry %d = %v→%v, want %v→%v", i, e.Key, e.Val, want[i], vals[want[i]])
		}
	}
}

// TableEntries radix-sorts a one-kind table from radixMin entries up and
// comparison-sorts below that and for mixed kinds: on each side of the
// cutoff, for each key kind, with the top byte of Bits set and not, the
// snapshot must be exactly slices.SortFunc(…, Value.Compare).
func TestTableEntriesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBE7C4))
	for _, c := range []struct {
		name string
		key  func(uint64) Value
	}{
		{"mac", func(b uint64) Value { return MACValue(netpkt.MACFromUint64(b)) }},
		{"ip", func(b uint64) Value { return IPValue(netpkt.IPv4(b)) }},
		{"u16", func(b uint64) Value { return U16Value(uint16(b)) }},
		{"top byte set", func(b uint64) Value { return Value{Kind: KindMAC, Bits: b | 0xff<<56} }},
		{"all bytes", func(b uint64) Value { return Value{Kind: KindMAC, Bits: b<<8 ^ b} }},
		{"mixed kinds", func(b uint64) Value { return Value{Kind: Kind(b%3) + KindMAC, Bits: b >> 2 & 0xffff} }},
	} {
		for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, 3000} {
			s := NewState()
			var want []Value
			for len(want) < n {
				k := c.key(rng.Uint64() >> uint(rng.Intn(64)))
				if s.Contains("t", k) {
					continue
				}
				s.Learn("t", k, U16Value(uint16(len(want))))
				want = append(want, k)
			}
			slices.SortFunc(want, Value.Compare)
			got := s.TableEntries("t")
			if len(got) != n {
				t.Fatalf("%s/%d: %d entries", c.name, n, len(got))
			}
			for i, e := range got {
				if v, _ := s.LookupTable("t", e.Key); e.Key != want[i] || e.Val != v {
					t.Fatalf("%s/%d: entry %d = %v→%v, want %v→%v", c.name, n, i, e.Key, e.Val, want[i], v)
				}
			}
		}
	}
}

func testEnv() *Env {
	p := netpkt.Packet{
		EthSrc:  netpkt.MustMAC("00:00:00:00:00:01"),
		EthDst:  netpkt.MustMAC("00:00:00:00:00:02"),
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.MustIPv4("192.168.0.5"),
		NwDst:   netpkt.MustIPv4("10.0.0.2"),
		NwProto: netpkt.ProtoUDP,
		TpSrc:   5000,
		TpDst:   53,
	}
	return &Env{State: NewState(), Packet: &p, InPort: 4}
}

func TestEvalExprBasics(t *testing.T) {
	env := testEnv()
	tests := []struct {
		name string
		give Expr
		want Value
	}{
		{"field", FieldRef{F: FInPort}, U16Value(4)},
		{"const", Const{V: U8Value(9)}, U8Value(9)},
		{"eq true", FieldEq(FTpDst, U16Value(53)), BoolValue(true)},
		{"eq false", FieldEq(FTpDst, U16Value(80)), BoolValue(false)},
		{"not", Not{A: FieldEq(FTpDst, U16Value(80))}, BoolValue(true)},
		{"and", And{A: FieldEq(FTpDst, U16Value(53)), B: FieldEq(FInPort, U16Value(4))}, BoolValue(true)},
		{"and short", And{A: FieldEq(FTpDst, U16Value(80)), B: FieldEq(FInPort, U16Value(4))}, BoolValue(false)},
		{"or", Or{A: FieldEq(FTpDst, U16Value(80)), B: FieldEq(FInPort, U16Value(4))}, BoolValue(true)},
		{"highbit true", HighBit{A: FieldRef{F: FNwSrc}}, BoolValue(true)},   // 192.x
		{"highbit false", HighBit{A: FieldRef{F: FNwDst}}, BoolValue(false)}, // 10.x
	}
	for _, tt := range tests {
		got, err := EvalExpr(tt.give, env)
		if err != nil {
			t.Errorf("%s: %v", tt.name, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%s: = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestEvalExprTableOps(t *testing.T) {
	env := testEnv()
	env.State.Learn("macToPort", MACValue(env.Packet.EthDst), U16Value(7))
	in, err := EvalExpr(FieldIn(FEthDst, "macToPort"), env)
	if err != nil || !in.Bool() {
		t.Errorf("InTable = %v, %v", in, err)
	}
	port, err := EvalExpr(FieldLookup(FEthDst, "macToPort"), env)
	if err != nil || port.U16() != 7 {
		t.Errorf("Lookup = %v, %v", port, err)
	}
	if _, err := EvalExpr(FieldLookup(FEthSrc, "macToPort"), env); err == nil {
		t.Error("Lookup of absent key succeeded")
	}
	env.State.AddPrefix("nets", IPValue(netpkt.MustIPv4("10.0.0.0")), 8, U16Value(3))
	inp, err := EvalExpr(FieldInPrefixes(FNwDst, "nets"), env)
	if err != nil || !inp.Bool() {
		t.Errorf("InPrefixTable = %v, %v", inp, err)
	}
	v, err := EvalExpr(FieldLookupPrefix(FNwDst, "nets"), env)
	if err != nil || v.U16() != 3 {
		t.Errorf("LookupPrefix = %v, %v", v, err)
	}
}

func TestEvalExprErrors(t *testing.T) {
	env := testEnv()
	if _, err := EvalExpr(ScalarRef{Name: "nope"}, env); err == nil {
		t.Error("unset scalar read succeeded")
	}
	if _, err := EvalExpr(HighBit{A: FieldRef{F: FTpDst}}, env); err == nil {
		t.Error("highbit of non-IP succeeded")
	}
	if _, err := EvalExpr(FieldLookupPrefix(FNwSrc, "empty"), env); err == nil {
		t.Error("LPM on empty table succeeded")
	}
}

func TestExecSimpleProgram(t *testing.T) {
	prog := &Program{
		Name: "toy",
		Handler: []Stmt{
			Learn{Table: "seen", Key: FieldRef{F: FEthSrc}, Val: FieldRef{F: FInPort}},
			If{
				Cond: FieldEq(FNwProto, U8Value(netpkt.ProtoUDP)),
				Then: []Stmt{Install{Rule: RuleTemplate{
					Match: []MatchField{
						{F: FEthType, Val: Const{V: U16Value(netpkt.EtherTypeIPv4)}},
						{F: FNwDst, Val: FieldRef{F: FNwDst}},
					},
					Priority: 10,
					Actions:  []ActionTemplate{ActOutput{Port: Const{V: U16Value(2)}}},
				}}},
				Else: []Stmt{Drop{}},
			},
		},
	}
	env := testEnv()
	d, err := Exec(prog, env.State, env.Packet, env.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Learned {
		t.Error("Learned = false")
	}
	if len(d.Installs) != 1 {
		t.Fatalf("Installs = %d, want 1", len(d.Installs))
	}
	rule := d.Installs[0]
	if !rule.Match.Matches(env.Packet, env.InPort) {
		t.Error("installed rule does not match the triggering packet")
	}
	if got := rule.Actions[0].(openflow.ActionOutput).Port; got != 2 {
		t.Errorf("action port = %d, want 2", got)
	}
	if len(d.Outputs) != 1 {
		t.Errorf("Outputs = %v, want the install's actions mirrored", d.Outputs)
	}

	// TCP packet takes the Drop branch.
	tcp := *env.Packet
	tcp.NwProto = netpkt.ProtoTCP
	d2, err := Exec(prog, env.State, &tcp, env.InPort)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Dropped || len(d2.Installs) != 0 {
		t.Errorf("TCP decision = %+v, want drop", d2)
	}
	if d2.Learned {
		t.Error("re-learning same binding reported Learned")
	}
}

func TestBindMatchFieldPrefix(t *testing.T) {
	m := openflow.MatchAll()
	if err := BindMatchField(&m, FNwSrc, IPValue(netpkt.MustIPv4("128.0.0.0")), 1); err != nil {
		t.Fatal(err)
	}
	if got := m.NwSrcMaskLen(); got != 1 {
		t.Errorf("mask len = %d, want 1", got)
	}
	hi := netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwSrc: netpkt.MustIPv4("200.0.0.1")}
	lo := netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwSrc: netpkt.MustIPv4("20.0.0.1")}
	// dl_type is still wildcarded, so bind it for L3 semantics.
	if err := BindMatchField(&m, FEthType, U16Value(netpkt.EtherTypeIPv4), 0); err != nil {
		t.Fatal(err)
	}
	if !m.Matches(&hi, 1) {
		t.Error("128/1 prefix rejected high address")
	}
	if m.Matches(&lo, 1) {
		t.Error("128/1 prefix accepted low address")
	}
}

func TestBindMatchFieldAllFields(t *testing.T) {
	for _, f := range Fields {
		m := openflow.MatchAll()
		var v Value
		switch f.Kind() {
		case KindMAC:
			v = MACValue(netpkt.MustMAC("00:00:00:00:00:05"))
		case KindIP:
			v = IPValue(netpkt.MustIPv4("10.0.0.5"))
		case KindU16:
			v = U16Value(5)
		case KindU8:
			v = U8Value(5)
		}
		if err := BindMatchField(&m, f, v, 0); err != nil {
			t.Errorf("BindMatchField(%v): %v", f, err)
		}
		all := openflow.MatchAll()
		if m.Normalized() == all.Normalized() {
			t.Errorf("BindMatchField(%v) left match fully wildcarded", f)
		}
	}
}

func TestUsedGlobals(t *testing.T) {
	e := And{
		A: InTable{Table: "a", Key: FieldRef{F: FEthSrc}},
		B: Or{
			A: Eq{A: FieldRef{F: FNwDst}, B: ScalarRef{Name: "vip"}},
			B: Not{A: InPrefixTable{Table: "r", Key: FieldRef{F: FNwDst}}},
		},
	}
	got := UsedGlobals(e)
	want := map[string]bool{"a": true, "vip": true, "r": true}
	if len(got) != len(want) {
		t.Fatalf("UsedGlobals = %v", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected global %q", g)
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := And{
		A: Not{A: FieldEq(FEthDst, MACValue(netpkt.Broadcast))},
		B: FieldIn(FEthDst, "macToPort"),
	}
	s := e.String()
	for _, frag := range []string{"dl_dst", "macToPort", "not"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	if CondsString(nil) != "true" {
		t.Error("empty conds should render as true")
	}
}

func TestValueEqualityIsStructural(t *testing.T) {
	f := func(bits uint64) bool {
		a := Value{Kind: KindMAC, Bits: bits & 0xffffffffffff}
		b := Value{Kind: KindMAC, Bits: bits & 0xffffffffffff}
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
