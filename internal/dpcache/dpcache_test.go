package dpcache

import (
	"testing"
	"time"

	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
)

type collect struct {
	origins []uint64
	ports   []uint16
	packets []netpkt.Packet
	delays  []time.Duration
}

func (c *collect) CacheEmit(origin uint64, origInPort uint16, pkt netpkt.Packet, queued time.Duration) {
	c.origins = append(c.origins, origin)
	c.ports = append(c.ports, origInPort)
	c.packets = append(c.packets, pkt)
	c.delays = append(c.delays, queued)
}

func tagged(proto uint8, inPort uint16, tpDst uint16) netpkt.Packet {
	return netpkt.Packet{
		EthSrc:  netpkt.MustMAC("00:00:00:00:00:01"),
		EthDst:  netpkt.MustMAC("00:00:00:00:00:02"),
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.MustIPv4("10.0.0.1"),
		NwDst:   netpkt.MustIPv4("10.0.0.2"),
		NwProto: proto,
		NwTOS:   EncodeInPortTOS(inPort),
		TpDst:   tpDst,
	}
}

func TestTOSTagRoundTrip(t *testing.T) {
	for port := uint16(0); port <= MaxTaggablePort; port++ {
		if got := DecodeInPortTOS(EncodeInPortTOS(port)); got != port {
			t.Errorf("port %d: round trip = %d", port, got)
		}
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		give netpkt.Packet
		want QueueClass
	}{
		{netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwProto: netpkt.ProtoTCP}, QueueTCP},
		{netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwProto: netpkt.ProtoUDP}, QueueUDP},
		{netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwProto: netpkt.ProtoICMP}, QueueICMP},
		{netpkt.Packet{EthType: netpkt.EtherTypeIPv4, NwProto: 47}, QueueDefault},
		{netpkt.Packet{EthType: netpkt.EtherTypeARP}, QueueDefault},
	}
	for _, tt := range tests {
		if got := Classify(&tt.give); got != tt.want {
			t.Errorf("Classify(%v) = %v, want %v", tt.give.Protocol(), got, tt.want)
		}
	}
}

func TestFIFOOrderAndInPortRecovery(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 16, InitialRatePPS: 1000}, sink)
	c.Start()
	defer c.Stop()

	for i := uint16(1); i <= 5; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, i, 1000+i))
	}
	eng.RunFor(time.Second)

	if len(sink.packets) != 5 {
		t.Fatalf("emitted %d, want 5", len(sink.packets))
	}
	for i, p := range sink.packets {
		if sink.ports[i] != uint16(i+1) {
			t.Errorf("packet %d: in_port = %d, want %d (FIFO + tag decode)", i, sink.ports[i], i+1)
		}
		if p.NwTOS != 0 {
			t.Errorf("packet %d: TOS tag not stripped (%d)", i, p.NwTOS)
		}
	}
}

func TestDropOldestOnOverflow(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 3, InitialRatePPS: 1000}, sink)
	// Do not start the scheduler: fill the queue.
	for i := uint16(1); i <= 5; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, 1, 100*i))
	}
	st := c.Stats()
	if st.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", st.Dropped)
	}
	c.Start()
	defer c.Stop()
	eng.RunFor(time.Second)
	// Survivors are the three most recent (300, 400, 500).
	if len(sink.packets) != 3 {
		t.Fatalf("emitted %d, want 3", len(sink.packets))
	}
	want := []uint16{300, 400, 500}
	for i, p := range sink.packets {
		if p.TpDst != want[i] {
			t.Errorf("survivor %d: tp_dst = %d, want %d (earliest dropped)", i, p.TpDst, want[i])
		}
	}
}

func TestRoundRobinAcrossProtocols(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 100, InitialRatePPS: 1000}, sink)

	// A UDP flood has queued 50 packets; one benign TCP packet arrives.
	for i := 0; i < 50; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, 1, uint16(i)))
	}
	c.Ingest(0, tagged(netpkt.ProtoTCP, 2, 80))
	c.Start()
	defer c.Stop()
	eng.RunFor(10 * time.Millisecond) // ~10 emissions

	// Round-robin guarantees the TCP packet is served within the first
	// full cycle despite the UDP backlog (the paper's rationale).
	var tcpIdx = -1
	for i, p := range sink.packets {
		if p.NwProto == netpkt.ProtoTCP {
			tcpIdx = i
			break
		}
	}
	if tcpIdx < 0 || tcpIdx > 2 {
		t.Errorf("TCP packet served at position %d, want within first cycle", tcpIdx)
	}
}

func TestRateLimitHonoured(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 10000, InitialRatePPS: 100}, sink)
	for i := 0; i < 1000; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, 1, uint16(i)))
	}
	c.Start()
	defer c.Stop()
	eng.RunFor(time.Second)
	if n := len(sink.packets); n < 95 || n > 105 {
		t.Errorf("emitted %d in 1s at 100 PPS", n)
	}
	// Agent raises the rate.
	c.SetRate(500)
	eng.RunFor(time.Second)
	if n := len(sink.packets); n < 550 || n > 650 {
		t.Errorf("emitted %d total after rate raise, want ~600", n)
	}
	// Pause.
	c.SetRate(0)
	before := len(sink.packets)
	eng.RunFor(time.Second)
	if len(sink.packets) != before {
		t.Error("emissions continued at rate 0")
	}
}

func TestDrainedAndBacklog(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 100, InitialRatePPS: 1000}, sink)
	if !c.Drained() {
		t.Error("fresh cache not drained")
	}
	c.Ingest(0, tagged(netpkt.ProtoICMP, 1, 0))
	if c.Drained() || c.Backlog() != 1 {
		t.Error("backlog not tracked")
	}
	c.Start()
	defer c.Stop()
	eng.RunFor(time.Second)
	if !c.Drained() {
		t.Error("cache did not drain")
	}
	st := c.Stats()
	if st.Enqueued != 1 || st.Emitted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueuedDelayReported(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 100, InitialRatePPS: 10, ProcessingDelay: time.Millisecond}, sink)
	c.Ingest(0, tagged(netpkt.ProtoTCP, 1, 80))
	c.Start()
	defer c.Stop()
	eng.RunFor(time.Second)
	if len(sink.delays) != 1 {
		t.Fatal("no emission")
	}
	// First tick at 100ms + 1ms processing.
	if sink.delays[0] < 100*time.Millisecond || sink.delays[0] > 110*time.Millisecond {
		t.Errorf("queued delay = %v, want ~101ms", sink.delays[0])
	}
}

func TestPriorityQueueForCacheResidentRules(t *testing.T) {
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 100, InitialRatePPS: 1000}, sink)

	tbl := flowtable.New(0)
	// A rule matching TCP port 80 traffic marks it priority.
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildDlType | openflow.WildNwProto | openflow.WildTpDst
	m.DlType = netpkt.EtherTypeIPv4
	m.NwProto = netpkt.ProtoTCP
	m.TpDst = 80
	if _, err := tbl.Apply(openflow.FlowMod{Match: m, Command: openflow.FlowAdd, Priority: 10,
		Actions: []openflow.Action{openflow.Output(2)}}, eng.Now()); err != nil {
		t.Fatal(err)
	}
	c.UseRuleTable(tbl)

	// Queue 20 UDP flood packets first, then the rule-matching packet.
	for i := 0; i < 20; i++ {
		c.Ingest(0, tagged(netpkt.ProtoUDP, 1, uint16(i)))
	}
	c.Ingest(0, tagged(netpkt.ProtoTCP, 2, 80))
	c.Start()
	defer c.Stop()
	eng.RunFor(2 * time.Millisecond) // ~2 emissions

	if len(sink.packets) == 0 || sink.packets[0].NwProto != netpkt.ProtoTCP {
		t.Errorf("first served packet proto = %v, want TCP (priority lane)", sink.packets)
	}
	if c.Stats().PriorityServed != 1 {
		t.Errorf("PriorityServed = %d, want 1", c.Stats().PriorityServed)
	}
}

func TestMigrationRules(t *testing.T) {
	rules := MigrationRules([]uint16{1, 2, 3}, 99)
	if len(rules) != 3 {
		t.Fatalf("rules = %d, want one per ingress port", len(rules))
	}
	for i, fm := range rules {
		if fm.Priority != 1 {
			t.Errorf("rule %d priority = %d, want 1 (lowest)", i, fm.Priority)
		}
		if fm.Match.Wildcards&openflow.WildInPort != 0 {
			t.Errorf("rule %d does not match in_port", i)
		}
		wantPort := uint16(i + 1)
		if fm.Match.InPort != wantPort {
			t.Errorf("rule %d in_port = %d, want %d", i, fm.Match.InPort, wantPort)
		}
		tos, ok := fm.Actions[0].(openflow.ActionSetNwTOS)
		if !ok || DecodeInPortTOS(tos.TOS) != wantPort {
			t.Errorf("rule %d TOS action = %v", i, fm.Actions[0])
		}
		out, ok := fm.Actions[1].(openflow.ActionOutput)
		if !ok || out.Port != 99 {
			t.Errorf("rule %d output = %v, want cache port", i, fm.Actions[1])
		}
	}
	// The migration rule matches any spoofed packet (wildcard base).
	g := netpkt.NewSpoofGen(1, netpkt.FloodMixed, 0)
	for i := 0; i < 100; i++ {
		p := g.Next()
		if !rules[0].Match.Matches(&p, 1) {
			t.Fatalf("migration rule missed %v", &p)
		}
		if rules[0].Match.Matches(&p, 2) {
			t.Fatalf("port-1 migration rule matched port-2 traffic")
		}
	}
}

func TestRoundRobinFairnessProperty(t *testing.T) {
	// With all four queues loaded, k emissions serve each queue k/4 ± 1
	// times.
	eng := netsim.NewEngine()
	sink := &collect{}
	c := New(eng, Config{QueueCapacity: 1000, InitialRatePPS: 1000}, sink)
	protos := []uint8{netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.ProtoICMP, 47}
	for i := 0; i < 100; i++ {
		for _, pr := range protos {
			c.Ingest(0, tagged(pr, 1, uint16(i)))
		}
	}
	c.Start()
	defer c.Stop()
	eng.RunFor(100 * time.Millisecond) // ~100 emissions
	counts := make(map[uint8]int)
	for _, p := range sink.packets {
		counts[p.NwProto]++
	}
	total := len(sink.packets)
	for _, pr := range protos {
		if counts[pr] < total/4-1 || counts[pr] > total/4+1 {
			t.Errorf("proto %d served %d of %d, want ~%d", pr, counts[pr], total, total/4)
		}
	}
}
