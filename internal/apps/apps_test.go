package apps

import (
	"slices"
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

var (
	hostA = netpkt.MustMAC("00:00:00:00:00:0a")
	hostB = netpkt.MustMAC("00:00:00:00:00:0b")
)

func ipPacket(src, dst netpkt.MAC, nwSrc, nwDst string, proto uint8) netpkt.Packet {
	return netpkt.Packet{
		EthSrc: src, EthDst: dst,
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.MustIPv4(nwSrc), NwDst: netpkt.MustIPv4(nwDst),
		NwProto: proto, TpSrc: 1234, TpDst: 80,
	}
}

func outPorts(actions []openflow.Action) []uint16 {
	var out []uint16
	for _, a := range actions {
		if o, ok := a.(openflow.ActionOutput); ok {
			out = append(out, o.Port)
		}
	}
	return out
}

func TestL2LearningThreeBranches(t *testing.T) {
	prog, st := L2Learning()

	// Branch 1: broadcast destination -> flood, learn source.
	bc := netpkt.Packet{EthSrc: hostA, EthDst: netpkt.Broadcast, EthType: netpkt.EtherTypeARP, ARPOp: netpkt.ARPRequest}
	d, err := appir.Exec(prog, st, &bc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 0 {
		t.Errorf("broadcast branch installed %d rules", len(d.Installs))
	}
	if ports := outPorts(d.Outputs); len(ports) != 1 || ports[0] != openflow.PortFlood {
		t.Errorf("broadcast branch outputs = %v, want flood", d.Outputs)
	}
	if !d.Learned {
		t.Error("source MAC not learned")
	}

	// Branch 2: unknown unicast destination -> flood.
	unknown := ipPacket(hostA, hostB, "10.0.0.1", "10.0.0.2", netpkt.ProtoUDP)
	d, err = appir.Exec(prog, st, &unknown, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 0 {
		t.Error("unknown-destination branch installed a rule")
	}

	// Learn B by letting it send, then branch 3 installs.
	fromB := ipPacket(hostB, hostA, "10.0.0.2", "10.0.0.1", netpkt.ProtoUDP)
	if _, err = appir.Exec(prog, st, &fromB, 2); err != nil {
		t.Fatal(err)
	}
	d, err = appir.Exec(prog, st, &unknown, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 {
		t.Fatalf("known-destination branch installed %d rules, want 1", len(d.Installs))
	}
	rule := d.Installs[0]
	if !rule.Match.Matches(&unknown, 1) {
		t.Error("installed rule does not cover the triggering packet")
	}
	if ports := outPorts(rule.Actions); len(ports) != 1 || ports[0] != 2 {
		t.Errorf("rule forwards to %v, want port 2 (where B lives)", ports)
	}
	if rule.IdleTimeout != DefaultIdleTimeout {
		t.Errorf("idle timeout = %d, want %d", rule.IdleTimeout, DefaultIdleTimeout)
	}
}

func TestARPHubStaticPolicies(t *testing.T) {
	prog, st := ARPHub()
	if slices.ContainsFunc(prog.Globals, func(g appir.GlobalDecl) bool { return g.StateSensitive }) {
		t.Error("arp_hub declares state-sensitive globals; Table I says it is static")
	}

	lldp := netpkt.Packet{EthSrc: hostA, EthDst: hostB, EthType: netpkt.EtherTypeLLDP}
	d, err := appir.Exec(prog, st, &lldp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 || len(d.Installs[0].Actions) != 0 {
		t.Errorf("LLDP decision = %+v, want a drop rule", d)
	}

	arp := netpkt.Flow{SrcMAC: hostA, SrcIP: netpkt.MustIPv4("10.0.0.1"), DstIP: netpkt.MustIPv4("10.0.0.2")}.ARPRequestPacket()
	d, err = appir.Exec(prog, st, &arp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 {
		t.Fatalf("ARP decision installs = %d, want 1", len(d.Installs))
	}
	if ports := outPorts(d.Installs[0].Actions); len(ports) != 1 || ports[0] != openflow.PortFlood {
		t.Errorf("ARP rule actions = %v, want flood", d.Installs[0].Actions)
	}

	other := ipPacket(hostA, hostB, "10.0.0.1", "10.0.0.2", netpkt.ProtoUDP)
	d, err = appir.Exec(prog, st, &other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Dropped {
		t.Error("non-ARP/non-LLDP packet not dropped by arp_hub")
	}
}

func TestIPBalancerSplitsOnHighBit(t *testing.T) {
	cfg := DefaultIPBalancerConfig()
	prog, st := IPBalancer(cfg)

	hi := ipPacket(hostA, hostB, "200.1.2.3", cfg.VIP.String(), netpkt.ProtoTCP)
	d, err := appir.Exec(prog, st, &hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 {
		t.Fatalf("high-bit installs = %d, want 1", len(d.Installs))
	}
	rule := d.Installs[0]
	if !rule.Match.Matches(&hi, 1) {
		t.Error("high-bit rule does not match its packet")
	}
	wantRewrite := openflow.ActionSetNwDst{IP: cfg.ReplicaHi}
	if rule.Actions[0] != openflow.Action(wantRewrite) {
		t.Errorf("rewrite = %v, want %v", rule.Actions[0], wantRewrite)
	}
	if ports := outPorts(rule.Actions); len(ports) != 1 || ports[0] != cfg.PortHi {
		t.Errorf("output = %v, want %d", ports, cfg.PortHi)
	}

	lo := ipPacket(hostA, hostB, "20.1.2.3", cfg.VIP.String(), netpkt.ProtoTCP)
	d, err = appir.Exec(prog, st, &lo, 1)
	if err != nil {
		t.Fatal(err)
	}
	rule = d.Installs[0]
	if rule.Actions[0] != openflow.Action(openflow.ActionSetNwDst{IP: cfg.ReplicaLo}) {
		t.Errorf("low rewrite = %v", rule.Actions[0])
	}
	if rule.Match.Matches(&hi, 1) {
		t.Error("low-half rule matches a high-bit source")
	}

	// Non-VIP traffic floods.
	other := ipPacket(hostA, hostB, "20.1.2.3", "10.0.0.9", netpkt.ProtoTCP)
	d, err = appir.Exec(prog, st, &other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 0 {
		t.Error("non-VIP traffic installed a rule")
	}
}

func TestIPBalancerDynamicRepartition(t *testing.T) {
	cfg := DefaultIPBalancerConfig()
	prog, st := IPBalancer(cfg)
	v := st.Version()

	// The Figure 8 example: the halves swap replicas.
	st.SetScalar("replicaHi", appir.IPValue(cfg.ReplicaLo))
	st.SetScalar("replicaLo", appir.IPValue(cfg.ReplicaHi))
	if st.Version() == v {
		t.Fatal("repartition did not bump state version")
	}
	hi := ipPacket(hostA, hostB, "200.1.2.3", cfg.VIP.String(), netpkt.ProtoTCP)
	d, err := appir.Exec(prog, st, &hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Installs[0].Actions[0] != openflow.Action(openflow.ActionSetNwDst{IP: cfg.ReplicaLo}) {
		t.Errorf("after repartition, high half rewrites to %v", d.Installs[0].Actions[0])
	}
}

func TestL3LearningLearnsFromARPAndInstallsForKnownIP(t *testing.T) {
	prog, st := L3Learning()

	arp := netpkt.Flow{SrcMAC: hostB, SrcIP: netpkt.MustIPv4("10.0.0.2"), DstIP: netpkt.MustIPv4("10.0.0.1")}.ARPRequestPacket()
	d, err := appir.Exec(prog, st, &arp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Learned || len(d.Installs) != 0 {
		t.Errorf("ARP decision = %+v, want learn+flood", d)
	}

	ip := ipPacket(hostA, hostB, "10.0.0.1", "10.0.0.2", netpkt.ProtoUDP)
	d, err = appir.Exec(prog, st, &ip, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 {
		t.Fatalf("installs = %d, want 1", len(d.Installs))
	}
	if ports := outPorts(d.Installs[0].Actions); len(ports) != 1 || ports[0] != 2 {
		t.Errorf("forwarding port = %v, want 2", ports)
	}
	// Unknown destination floods but still learns the source.
	unknown := ipPacket(hostA, hostB, "10.0.0.1", "10.0.0.99", netpkt.ProtoUDP)
	d, err = appir.Exec(prog, st, &unknown, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 0 {
		t.Error("unknown IP installed a rule")
	}
	if !st.Contains("ipToPort", appir.IPValue(netpkt.MustIPv4("10.0.0.1"))) {
		t.Error("source IP not learned")
	}
}

func TestOFFirewallPolicies(t *testing.T) {
	prog, st := OFFirewall()
	st.Learn("blockedTCPPorts", appir.U16Value(23), appir.BoolValue(true)) // telnet
	st.AddPrefix("blockedSrcNets", appir.IPValue(netpkt.MustIPv4("203.0.113.0")), 24, appir.BoolValue(true))
	st.AddPrefix("routeTable", appir.IPValue(netpkt.MustIPv4("10.0.0.0")), 8, appir.U16Value(4))

	// Blocked TCP port -> drop rule on tp_dst.
	telnet := ipPacket(hostA, hostB, "10.0.0.1", "10.0.0.2", netpkt.ProtoTCP)
	telnet.TpDst = 23
	d, err := appir.Exec(prog, st, &telnet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 || len(d.Installs[0].Actions) != 0 {
		t.Fatalf("telnet decision = %+v, want drop install", d)
	}
	if d.Installs[0].Priority != PrioDrop {
		t.Errorf("drop priority = %d, want %d", d.Installs[0].Priority, PrioDrop)
	}

	// Blocked source network -> drop rule on nw_src.
	evil := ipPacket(hostA, hostB, "203.0.113.7", "10.0.0.2", netpkt.ProtoUDP)
	d, err = appir.Exec(prog, st, &evil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 || len(d.Installs[0].Actions) != 0 {
		t.Fatalf("blocked-net decision = %+v, want drop install", d)
	}

	// Routable traffic -> forward rule.
	ok := ipPacket(hostA, hostB, "198.51.100.1", "10.0.0.2", netpkt.ProtoUDP)
	d, err = appir.Exec(prog, st, &ok, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 {
		t.Fatalf("routable decision installs = %d, want 1", len(d.Installs))
	}
	if ports := outPorts(d.Installs[0].Actions); len(ports) != 1 || ports[0] != 4 {
		t.Errorf("route port = %v, want 4", ports)
	}

	// Unroutable -> flood, no install.
	lost := ipPacket(hostA, hostB, "198.51.100.1", "172.16.0.9", netpkt.ProtoUDP)
	d, err = appir.Exec(prog, st, &lost, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 0 {
		t.Error("unroutable traffic installed a rule")
	}
}

func TestMACBlocker(t *testing.T) {
	prog, st := MACBlocker()
	st.Learn("blockedMACs", appir.MACValue(hostA), appir.BoolValue(true))

	bad := ipPacket(hostA, hostB, "10.0.0.1", "10.0.0.2", netpkt.ProtoUDP)
	d, err := appir.Exec(prog, st, &bad, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 || len(d.Installs[0].Actions) != 0 {
		t.Fatalf("blocked MAC decision = %+v, want drop install", d)
	}

	good := ipPacket(hostB, hostA, "10.0.0.2", "10.0.0.1", netpkt.ProtoUDP)
	d, err = appir.Exec(prog, st, &good, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 0 {
		t.Error("unblocked MAC installed a rule")
	}
}

func TestRouteApp(t *testing.T) {
	prog, st := Route()
	st.AddPrefix("routingTable", appir.IPValue(netpkt.MustIPv4("10.0.0.0")), 8, appir.U16Value(1))
	st.AddPrefix("routingTable", appir.IPValue(netpkt.MustIPv4("10.1.0.0")), 16, appir.U16Value(2))

	p := ipPacket(hostA, hostB, "192.0.2.1", "10.1.5.5", netpkt.ProtoUDP)
	d, err := appir.Exec(prog, st, &p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Installs) != 1 {
		t.Fatalf("installs = %d, want 1", len(d.Installs))
	}
	if ports := outPorts(d.Installs[0].Actions); len(ports) != 1 || ports[0] != 2 {
		t.Errorf("LPM picked port %v, want 2 (the /16)", ports)
	}
}

func TestEvaluationSetOrder(t *testing.T) {
	progs, states := EvaluationSet()
	if len(progs) != 5 || len(states) != 5 {
		t.Fatalf("EvaluationSet sizes = %d, %d", len(progs), len(states))
	}
	want := []string{"l2_learning", "ip_balancer", "l3_learning", "of_firewall", "mac_blocker"}
	for i, p := range progs {
		if p.Name != want[i] {
			t.Errorf("app %d = %s, want %s", i, p.Name, want[i])
		}
	}
}

func TestTable3StateSensitiveVariables(t *testing.T) {
	// The paper's Table III: each evaluation app's state-sensitive
	// variables, recoverable from the program declarations.
	want := map[string][]string{
		"l2_learning": {"macToPort"},
		"ip_balancer": {"replicaHi", "replicaLo", "portHi", "portLo"},
		"l3_learning": {"ipToPort"},
		"of_firewall": {"blockedTCPPorts", "blockedSrcNets", "routeTable"},
		"mac_blocker": {"blockedMACs"},
	}
	progs, _ := EvaluationSet()
	for _, p := range progs {
		var got []string
		for _, g := range p.Globals {
			if !g.StateSensitive {
				continue
			}
			got = append(got, g.Name)
			if g.Description == "" {
				t.Errorf("%s: %s lacks a description", p.Name, g.Name)
			}
		}
		w := want[p.Name]
		if len(got) != len(w) {
			t.Errorf("%s: state-sensitive vars = %v, want %v", p.Name, got, w)
			continue
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s: var %d = %s, want %s", p.Name, i, got[i], w[i])
			}
		}
	}
}
