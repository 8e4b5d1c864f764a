// Multiswitch: FloodGuard protecting a two-switch topology with one
// shared data plane cache — the paper's §IV.E deployment discussion
// ("ideally, we only need to deploy one data plane cache to serve all
// switches"). l2_learning runs per datapath (as POX instantiates it), so
// the analyzer derives per-switch proactive rules that reference each
// switch's own ports.
package main

import (
	"fmt"
	"log"
	"time"

	"floodguard"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net := floodguard.NewNetwork()
	s1 := net.AddSwitch(0x1, floodguard.SoftwareSwitch())
	s2 := net.AddSwitch(0x2, floodguard.SoftwareSwitch())
	net.Link(s1, 2, s2, 2) // inter-switch patch on port 2 of both

	alice, err := net.AddHost(s1, "alice", 1, "00:00:00:00:00:0a", "10.0.0.1")
	if err != nil {
		return err
	}
	bob, err := net.AddHost(s2, "bob", 1, "00:00:00:00:00:0b", "10.0.0.2")
	if err != nil {
		return err
	}
	mallory, err := net.AddHost(s2, "mallory", 3, "00:00:00:00:00:0c", "10.0.0.3")
	if err != nil {
		return err
	}

	l2 := floodguard.L2Learning()
	l2.PerDatapath = true // one learning table per switch, as in POX
	net.RegisterApp(l2)
	net.Deploy()
	defer net.Close()

	guard, err := net.EnableFloodGuard(floodguard.DefaultConfig())
	if err != nil {
		return err
	}

	// Cross-switch warm-up: alice and bob talk through the patch link.
	net.Run(200 * time.Millisecond)
	alice.Send(floodguard.UDPPacket(alice, bob, 5000, 7000, 100))
	net.Run(300 * time.Millisecond)
	bob.Send(floodguard.UDPPacket(bob, alice, 7000, 5000, 100))
	net.Run(time.Second)
	fmt.Printf("warm-up: alice received %d, bob received %d (cross-switch L2 learning works)\n",
		alice.Received(), bob.Received())

	// Attack on s2.
	flood := net.NewFlooder(mallory, 42, floodguard.FloodUDP)
	flood.Start(300)
	net.Run(2 * time.Second)
	fmt.Printf("\nstate=%v after attack on s2; one shared cache absorbed %d packets\n",
		guard.State(), guard.Cache().Stats().Enqueued)

	// Per-switch proactive rules for bob reference each switch's own
	// topology: on s1 bob is behind the patch (port 2); on s2 he is
	// local (port 1).
	bobMAC, _ := floodguard.ParseMAC("00:00:00:00:00:0b")
	for _, sw := range []*floodguard.Switch{s1, s2} {
		for _, e := range sw.Table().Entries() {
			if e.Match.DlDst == bobMAC && len(e.Actions) > 0 {
				fmt.Printf("  switch %#x: %s\n", sw.DPID, e.String())
			}
		}
	}

	// Benign cross-switch traffic during the attack (replayed flood
	// packets are flooded too, so count only this flow).
	benign := 0
	bob.OnReceive = func(pkt floodguard.Packet) {
		if pkt.TpDst == 7100 {
			benign++
		}
	}
	for i := 0; i < 10; i++ {
		alice.Send(floodguard.UDPPacket(alice, bob, uint16(5100+i), 7100, 100))
	}
	net.Run(time.Second)
	fmt.Printf("\nbob received %d of 10 cross-switch benign packets during the flood\n", benign)
	return nil
}
