package symexec

import (
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

func explore(t *testing.T, prog *appir.Program) []Path {
	t.Helper()
	paths, err := Explore(prog)
	if err != nil {
		t.Fatalf("Explore(%s): %v", prog.Name, err)
	}
	return paths
}

func TestExploreL2LearningFindsThreeBranches(t *testing.T) {
	prog, _ := apps.L2Learning()
	paths := explore(t, prog)
	// Figure 5: broadcast / unknown / known — exactly three paths.
	if len(paths) != 3 {
		for _, p := range paths {
			t.Log(p.String())
		}
		t.Fatalf("paths = %d, want 3", len(paths))
	}
	installPaths := 0
	for _, p := range paths {
		if len(p.Installs) > 0 {
			installPaths++
		}
		if len(p.Learns) != 1 {
			t.Errorf("path %d learns = %d, want 1 (unconditional learn)", p.ID, len(p.Learns))
		}
	}
	if installPaths != 1 {
		t.Errorf("install-terminated paths = %d, want 1", installPaths)
	}
}

func TestExploreIdentifiesStateSensitiveVariables(t *testing.T) {
	// The paper's Table III, recovered by analysis rather than
	// declaration.
	want := map[string][]string{
		"l2_learning": {"macToPort"},
		"l3_learning": {"ipToPort"},
		"mac_blocker": {"blockedMACs"},
		"of_firewall": {"blockedTCPPorts", "blockedSrcNets", "routeTable"},
	}
	progs := []func() (*appir.Program, *appir.State){
		apps.L2Learning, apps.L3Learning, apps.MACBlocker, apps.OFFirewall,
	}
	for _, mk := range progs {
		prog, _ := mk()
		got := StateSensitiveVariables(explore(t, prog))
		w := want[prog.Name]
		if len(got) < len(w) {
			t.Errorf("%s: found %v, want at least %v", prog.Name, got, w)
			continue
		}
		gotSet := make(map[string]bool, len(got))
		for _, g := range got {
			gotSet[g] = true
		}
		for _, name := range w {
			if !gotSet[name] {
				t.Errorf("%s: missing state-sensitive variable %s", prog.Name, name)
			}
		}
	}
}

func TestExploreARPHubHasNoStateSensitiveVariables(t *testing.T) {
	prog, _ := apps.ARPHub()
	if got := StateSensitiveVariables(explore(t, prog)); len(got) != 0 {
		t.Errorf("arp_hub analysis found globals %v, want none (static app)", got)
	}
}

func TestDeriveRulesL2Learning(t *testing.T) {
	prog, st := apps.L2Learning()
	paths := explore(t, prog)

	// Empty state: no MACs learned, no proactive rules (the third branch
	// is unreachable), mirroring the paper's observation that the rule
	// count tracks the macToPort contents.
	rules, err := DeriveRules(paths, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Fatalf("rules from empty state = %d, want 0", len(rules))
	}

	// Learn two hosts; expect exactly two proactive rules.
	macA := netpkt.MustMAC("00:00:00:00:00:0a")
	macB := netpkt.MustMAC("00:00:00:00:00:0b")
	st.Learn("macToPort", appir.MACValue(macA), appir.U16Value(1))
	st.Learn("macToPort", appir.MACValue(macB), appir.U16Value(2))
	rules, err = DeriveRules(paths, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d, want 2 (one per learned MAC)", len(rules))
	}
	byPort := make(map[netpkt.MAC]uint16)
	for _, r := range rules {
		out, ok := r.Rule.Actions[0].(openflow.ActionOutput)
		if !ok {
			t.Fatalf("rule action = %v", r.Rule.Actions)
		}
		byPort[r.Rule.Match.DlDst] = out.Port
		if r.Rule.Match.Wildcards&openflow.WildDlDst != 0 {
			t.Error("dl_dst left wildcarded")
		}
	}
	if byPort[macA] != 1 || byPort[macB] != 2 {
		t.Errorf("derived mapping = %v", byPort)
	}
}

func TestDeriveRulesIPBalancer(t *testing.T) {
	prog, st := apps.IPBalancer()
	vip, _ := st.Scalar("vip")
	replicaLo, _ := st.Scalar("replicaLo")
	rules, err := DeriveRules(explore(t, prog), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d, want 2 (the two halves)", len(rules))
	}
	for _, r := range rules {
		if r.Rule.Match.NwSrcMaskLen() != 1 {
			t.Errorf("nw_src mask = %d, want /1", r.Rule.Match.NwSrcMaskLen())
		}
		if got := r.Rule.Match.NwDst; got != vip.IP() {
			t.Errorf("nw_dst = %v, want VIP", got)
		}
	}
	// After the Figure 8 repartition, re-derivation must follow.
	st.SetScalar("replicaHi", replicaLo)
	rules2, err := DeriveRules(explore(t, prog), st)
	if err != nil {
		t.Fatal(err)
	}
	var hiRewrite netpkt.IPv4
	for _, r := range rules2 {
		if r.Rule.Match.NwSrc.HighBit() {
			hiRewrite = r.Rule.Actions[0].(openflow.ActionSetNwDst).IP
		}
	}
	if hiRewrite != replicaLo.IP() {
		t.Errorf("after repartition, high half rewrites to %v, want %v", hiRewrite, replicaLo.IP())
	}
}

func TestDeriveRulesOFFirewallPriorityOrdering(t *testing.T) {
	prog, st := apps.OFFirewall()
	st.Learn("blockedTCPPorts", appir.U16Value(23), appir.BoolValue(true))
	st.AddPrefix("blockedSrcNets", appir.IPValue(netpkt.MustIPv4("203.0.113.0")), 24, appir.BoolValue(true))
	st.AddPrefix("routeTable", appir.IPValue(netpkt.MustIPv4("10.0.0.0")), 8, appir.U16Value(4))

	rules, err := DeriveRules(explore(t, prog), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules derived")
	}
	var dropMax, fwdMax uint16
	for _, r := range rules {
		if len(r.Rule.Actions) == 0 {
			if r.Rule.Priority > dropMax {
				dropMax = r.Rule.Priority
			}
		} else if r.Rule.Priority > fwdMax {
			fwdMax = r.Rule.Priority
		}
	}
	if dropMax == 0 || fwdMax == 0 {
		t.Fatalf("expected both drop and forward rules, got dropMax=%d fwdMax=%d", dropMax, fwdMax)
	}
	if dropMax <= fwdMax {
		t.Errorf("drop priority %d not above forward priority %d", dropMax, fwdMax)
	}

	// Semantics check: a packet from the blocked net to a routed
	// destination must hit a drop rule first when rules are ranked by
	// priority.
	evil := netpkt.Packet{
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.MustIPv4("203.0.113.9"),
		NwDst:   netpkt.MustIPv4("10.1.1.1"),
		NwProto: netpkt.ProtoUDP,
	}
	best := bestRule(rules, &evil, 1)
	if best == nil {
		t.Fatal("no rule matches the blocked-source packet")
	}
	if len(best.Rule.Actions) != 0 {
		t.Errorf("best rule for blocked source is %v, want drop", best.Rule)
	}
}

// bestRule returns the highest-priority derived rule matching p.
func bestRule(rules []ProactiveRule, p *netpkt.Packet, inPort uint16) *ProactiveRule {
	var best *ProactiveRule
	for i := range rules {
		r := &rules[i]
		if r.Rule.Match.Matches(p, inPort) {
			if best == nil || r.Rule.Priority > best.Rule.Priority {
				best = r
			}
		}
	}
	return best
}

func TestDeriveRulesRouteLPMViaPriorities(t *testing.T) {
	prog, st := apps.Route()
	st.AddPrefix("routingTable", appir.IPValue(netpkt.MustIPv4("10.0.0.0")), 8, appir.U16Value(1))
	st.AddPrefix("routingTable", appir.IPValue(netpkt.MustIPv4("10.1.0.0")), 16, appir.U16Value(2))
	rules, err := DeriveRules(explore(t, prog), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(rules))
	}
	p := netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwDst: netpkt.MustIPv4("10.1.9.9"), NwProto: netpkt.ProtoUDP}
	best := bestRule(rules, &p, 1)
	if best == nil {
		t.Fatal("no matching rule")
	}
	if got := best.Rule.Actions[0].(openflow.ActionOutput).Port; got != 2 {
		t.Errorf("LPM-by-priority picked port %d, want 2 (the /16)", got)
	}
}

func TestMatchPathUniqueness(t *testing.T) {
	progs, states := apps.EvaluationSet()
	gen := netpkt.NewSpoofGen(99, netpkt.FloodMixed, 16)
	for i, prog := range progs {
		paths := explore(t, prog)
		st := states[i]
		for j := 0; j < 100; j++ {
			p := gen.Next()
			if _, err := MatchPath(paths, st, &p, uint16(j%4+1)); err != nil {
				t.Errorf("%s: packet %d: %v", prog.Name, j, err)
			}
		}
	}
}

// TestSymbolicConcreteCorrespondence is the core soundness property: for
// random packets and states, the concrete interpreter's decision must
// equal the decision of the unique path whose condition the packet
// satisfies.
func TestSymbolicConcreteCorrespondence(t *testing.T) {
	progs, states := apps.EvaluationSet()
	gen := netpkt.NewSpoofGen(7, netpkt.FloodMixed, 16)
	benign := []netpkt.Packet{}
	// Mix in structured traffic so install branches get exercised.
	for i := 0; i < 20; i++ {
		benign = append(benign, netpkt.Packet{
			EthSrc:  netpkt.MACFromUint64(uint64(i + 1)),
			EthDst:  netpkt.MACFromUint64(uint64(i%5 + 1)),
			EthType: netpkt.EtherTypeIPv4,
			NwSrc:   netpkt.IPv4(0x0a000000 + uint32(i)),
			NwDst:   netpkt.IPv4(0x0a000000 + uint32(i%5)),
			NwProto: netpkt.ProtoUDP,
			TpSrc:   1000, TpDst: 2000,
		})
	}
	for idx, prog := range progs {
		paths := explore(t, prog)
		st := states[idx]
		for j := 0; j < 300; j++ {
			var pkt netpkt.Packet
			if j%3 == 0 {
				pkt = benign[j%len(benign)]
			} else {
				pkt = gen.Next()
			}
			inPort := uint16(j%4 + 1)

			// Symbolic side first (before Exec mutates state).
			path, err := MatchPath(paths, st, &pkt, inPort)
			if err != nil {
				t.Fatalf("%s: MatchPath: %v", prog.Name, err)
			}
			d, err := appir.Exec(prog, st, &pkt, inPort)
			if err != nil {
				t.Fatalf("%s: Exec: %v", prog.Name, err)
			}
			if len(d.Installs) != len(path.Installs) {
				t.Fatalf("%s pkt %d: concrete installs %d != symbolic installs %d (path %d)",
					prog.Name, j, len(d.Installs), len(path.Installs), path.ID)
			}
			if d.Dropped != path.Drops {
				t.Fatalf("%s pkt %d: concrete drop %t != symbolic %t", prog.Name, j, d.Dropped, path.Drops)
			}
		}
	}
}

// TestDerivedRuleSoundness: any packet matching a derived proactive rule,
// executed concretely, must install a rule with identical actions — the
// proactive rule anticipates exactly what the app would do.
func TestDerivedRuleSoundness(t *testing.T) {
	prog, st := apps.L2Learning()
	for i := 1; i <= 8; i++ {
		st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(uint64(i))), appir.U16Value(uint16(i%4+1)))
	}
	paths := explore(t, prog)
	rules, err := DeriveRules(paths, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 8 {
		t.Fatalf("rules = %d, want 8", len(rules))
	}
	for _, r := range rules {
		// Construct a packet matching the rule.
		pkt := netpkt.Packet{
			EthSrc:  netpkt.MustMAC("00:00:00:00:00:63"),
			EthDst:  r.Rule.Match.DlDst,
			EthType: netpkt.EtherTypeIPv4,
			NwSrc:   netpkt.MustIPv4("10.0.0.99"),
			NwDst:   netpkt.MustIPv4("10.0.0.1"),
			NwProto: netpkt.ProtoUDP,
		}
		if !r.Rule.Match.Matches(&pkt, 5) {
			t.Fatalf("constructed packet does not match rule %v", r.Rule)
		}
		d, err := appir.Exec(prog, st, &pkt, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Installs) != 1 {
			t.Fatalf("concrete execution installed %d rules", len(d.Installs))
		}
		want := openflow.ActionsString(d.Installs[0].Actions)
		got := openflow.ActionsString(r.Rule.Actions)
		if got != want {
			t.Errorf("rule actions %s != concrete actions %s", got, want)
		}
	}
}

func TestPathString(t *testing.T) {
	prog, _ := apps.L2Learning()
	paths := explore(t, prog)
	for _, p := range paths {
		if p.String() == "" {
			t.Error("empty path string")
		}
	}
}

func TestExploreAllAppsBounded(t *testing.T) {
	progs, _ := apps.EvaluationSet()
	for _, prog := range progs {
		paths := explore(t, prog)
		if len(paths) == 0 {
			t.Errorf("%s: no paths", prog.Name)
		}
		if len(paths) > 64 {
			t.Errorf("%s: suspicious path count %d", prog.Name, len(paths))
		}
	}
}

func BenchmarkSymbolicExecution(b *testing.B) {
	progs, _ := apps.EvaluationSet()
	for _, prog := range progs {
		b.Run(prog.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Explore(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
