package attrib

import (
	"sync"
	"testing"
	"time"

	"floodguard/internal/dpcache"
	"floodguard/internal/netpkt"
)

const window = 100 * time.Millisecond

func pktFrom(src string) *netpkt.Packet {
	return &netpkt.Packet{
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   netpkt.MustIPv4(src),
		NwDst:   netpkt.MustIPv4("10.0.0.2"),
		NwProto: netpkt.ProtoUDP,
	}
}

// feed observes n packets from src on (dpid, port) then rolls one window.
func feed(a *Attributor, dpid uint64, port uint16, src string, n int) []Verdict {
	for i := 0; i < n; i++ {
		a.ObservePacket(dpid, port, pktFrom(src))
	}
	return a.Roll(window)
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CUSUMThreshold = 30
	cfg.CUSUMDrift = 2
	cfg.SuspectRatePPS = 10
	cfg.HealWindows = 3
	cfg.Seed = 0xF100D
	return cfg
}

func TestAttackPortBlamedBenignPortNot(t *testing.T) {
	a := New(testConfig())
	// Benign port 1 averages 5 pps (one packet every other 100ms window),
	// under the 10 pps floor; attack port 3 runs a steady 100 pps.
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			a.ObservePacket(1, 1, pktFrom("10.0.0.1"))
		}
		for j := 0; j < 10; j++ { // attacker: 100 pps
			a.ObservePacket(1, 3, pktFrom("10.0.0.66"))
		}
		a.Roll(window)
	}
	if !a.Blamed(1, 3) {
		t.Fatal("attack port not blamed after 20 windows at 100 pps")
	}
	if a.Blamed(1, 1) {
		t.Fatal("benign port blamed")
	}
	sus := a.Suspects(1)
	if len(sus) != 1 || sus[0] != 3 {
		t.Fatalf("Suspects = %v, want [3]", sus)
	}
	if b := a.PortBlame(1, 3); b < 1 {
		t.Fatalf("blamed port score %v, want >= 1", b)
	}
}

func TestBlameHealsAfterCalmWindows(t *testing.T) {
	a := New(testConfig())
	for i := 0; i < 5; i++ {
		feed(a, 1, 3, "10.0.0.66", 10) // 100 pps
	}
	if !a.Blamed(1, 3) {
		t.Fatal("not blamed during attack")
	}
	// Attack stops: HealWindows calm windows un-blame.
	for i := 0; i < 2; i++ {
		feed(a, 1, 3, "10.0.0.66", 0)
		if !a.Blamed(1, 3) {
			t.Fatalf("healed after only %d calm windows, want %d", i+1, 3)
		}
	}
	feed(a, 1, 3, "10.0.0.66", 0)
	if a.Blamed(1, 3) {
		t.Fatal("still blamed after HealWindows calm windows")
	}
	if b := a.PortBlame(1, 3); b != 0 {
		t.Fatalf("blame score %v after heal, want 0", b)
	}
}

func TestCalmStreakResetsOnRelapse(t *testing.T) {
	a := New(testConfig())
	for i := 0; i < 5; i++ {
		feed(a, 1, 3, "10.0.0.66", 10)
	}
	feed(a, 1, 3, "10.0.0.66", 0)  // calm 1
	feed(a, 1, 3, "10.0.0.66", 0)  // calm 2
	feed(a, 1, 3, "10.0.0.66", 10) // relapse
	feed(a, 1, 3, "10.0.0.66", 0)  // calm 1 again
	feed(a, 1, 3, "10.0.0.66", 0)  // calm 2
	if !a.Blamed(1, 3) {
		t.Fatal("relapse did not reset the calm streak")
	}
}

func TestRateFloorBlocksLowRateBlame(t *testing.T) {
	cfg := testConfig()
	cfg.SuspectRatePPS = 50
	a := New(cfg)
	// 30 pps forever: excursion crosses the CUSUM threshold but the rate
	// floor keeps the port unblamed.
	for i := 0; i < 50; i++ {
		feed(a, 1, 2, "10.0.0.9", 3)
	}
	if a.Blamed(1, 2) {
		t.Fatal("port blamed below the rate floor")
	}
}

func TestHintPortAndSourceVerdicts(t *testing.T) {
	cfg := testConfig()
	cfg.MinSampleTotal = 10
	a := New(cfg)

	// Before any attack, everything is benign — even a source that owns
	// 100% of the stream.
	for i := 0; i < 5; i++ {
		feed(a, 1, 1, "10.0.0.1", 1)
	}
	if h := a.Hint(1, 1, pktFrom("10.0.0.1")); h != dpcache.HintBenign {
		t.Fatalf("pre-attack hint = %d, want benign", h)
	}

	// Attack from port 3, single source: port blamed, source dominant.
	for i := 0; i < 10; i++ {
		feed(a, 1, 3, "10.0.0.66", 20)
	}
	if h := a.Hint(1, 3, pktFrom("10.0.0.66")); h != dpcache.HintSuspect {
		t.Fatalf("blamed-port hint = %d, want suspect", h)
	}
	// Same heavy source arriving via an unblamed port is still suspect.
	if h := a.Hint(1, 1, pktFrom("10.0.0.66")); h != dpcache.HintSuspect {
		t.Fatalf("heavy-source hint = %d, want suspect", h)
	}
	// A mouse source on an unblamed port stays benign.
	if h := a.Hint(1, 1, pktFrom("10.0.0.1")); h != dpcache.HintBenign {
		t.Fatalf("benign hint = %d, want benign", h)
	}
}

func TestVerdictsReportRateAndBaseline(t *testing.T) {
	a := New(testConfig())
	vs := feed(a, 1, 4, "10.0.0.5", 2) // 20 pps
	if len(vs) != 1 {
		t.Fatalf("verdicts = %v, want 1", vs)
	}
	v := vs[0]
	if v.DPID != 1 || v.Port != 4 {
		t.Fatalf("verdict identity %+v", v)
	}
	if v.RatePPS != 20 {
		t.Fatalf("RatePPS = %v, want 20", v.RatePPS)
	}
	if v.Suspect {
		t.Fatal("single mild window marked suspect")
	}
	if a.Roll(0) != nil {
		t.Fatal("zero-length window must be ignored")
	}
	if a.Roll(-time.Second) != nil {
		t.Fatal("negative window must be ignored")
	}
}

func TestSketchDecayAges(t *testing.T) {
	cfg := testConfig()
	cfg.DecayEveryWindows = 2
	cfg.MinSampleTotal = 1
	a := New(cfg)
	for i := 0; i < 10; i++ {
		feed(a, 1, 3, "10.0.0.66", 20)
	}
	totalHot := a.srcs.Total()
	// Silence: decay halves the sketch every 2 windows.
	for i := 0; i < 10; i++ {
		a.Roll(window)
	}
	if got := a.srcs.Total(); got >= totalHot/4 {
		t.Fatalf("sketch total %d did not age from %d", got, totalHot)
	}
}

func TestConcurrentObserveRollHint(t *testing.T) {
	a := New(testConfig())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				a.ObservePacket(1, uint16(i%4), pktFrom("10.0.0.66"))
				a.Hint(1, uint16(i%4), pktFrom("10.0.0.1"))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			a.Roll(window)
			a.Suspects(1)
		}
		close(stop)
	}()
	wg.Wait()
}
