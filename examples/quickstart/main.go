// Quickstart: bring up the paper's Figure 9 topology — one OpenFlow
// switch, a reactive controller running l2_learning, two benign clients
// and one attacker — enable FloodGuard, launch a UDP saturation attack,
// and watch the state machine walk Idle → Init → Defense → Finish → Idle
// while benign traffic keeps flowing.
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
	sw := net.AddSwitch(0x1, floodguard.SoftwareSwitch())

	alice, err := net.AddHost(sw, "alice", 1, "00:00:00:00:00:0a", "10.0.0.1")
	if err != nil {
		return err
	}
	bob, err := net.AddHost(sw, "bob", 2, "00:00:00:00:00:0b", "10.0.0.2")
	if err != nil {
		return err
	}
	mallory, err := net.AddHost(sw, "mallory", 3, "00:00:00:00:00:0c", "10.0.0.3")
	if err != nil {
		return err
	}

	net.RegisterApp(floodguard.L2Learning())
	net.Deploy()
	defer net.Close()

	cfg := floodguard.DefaultConfig()
	// Keep the replay rate modest so the walkthrough output stays small.
	cfg.RateLimit.MaxPPS = 50
	guard, err := net.EnableFloodGuard(cfg)
	if err != nil {
		return err
	}

	// Let alice and bob introduce themselves so l2_learning knows both.
	fmt.Println("== warm up: benign hosts exchange traffic ==")
	for i := 0; i < 5; i++ {
		send(alice, bob, 1)
		net.Run(200 * time.Millisecond)
	}
	fmt.Printf("t=%-6v state=%-8v switch rules=%d  bob received=%d\n",
		net.Now().Round(time.Millisecond), guard.State(), sw.Table().Len(), bob.Received())

	// Attack.
	fmt.Println("\n== mallory floods 300 spoofed UDP packets/second ==")
	flood := net.NewFlooder(mallory, 42, floodguard.FloodUDP)
	flood.Start(300)
	for i := 0; i < 4; i++ {
		net.Run(500 * time.Millisecond)
		st := guard.Cache().Stats()
		fmt.Printf("t=%-6v state=%-8v rules=%-3d cache{in=%d out=%d backlog=%d} replay=%.0f pps\n",
			net.Now().Round(time.Millisecond), guard.State(), sw.Table().Len(),
			st.Enqueued, st.Emitted, st.Backlog, guard.Cache().Rate())
	}

	// Benign traffic still flows through the proactive rules.
	fmt.Println("\n== benign traffic during the attack ==")
	benign := 0
	bob.OnReceive = func(pkt floodguard.Packet) {
		if pkt.TpDst >= 7100 && pkt.TpDst < 7200 {
			benign++
		}
	}
	for i := 0; i < 20; i++ {
		alice.Send(floodguard.UDPPacket(alice, bob, uint16(5100+i), uint16(7100+i), 100))
	}
	net.Run(time.Second)
	bob.OnReceive = nil
	fmt.Printf("bob received %d of 20 benign packets while flooded\n", benign)

	// End of attack: Finish, drain, Idle.
	fmt.Println("\n== attack stops; the cache drains ==")
	flood.Stop()
	for guard.State() != floodguard.StateIdle && net.Now() < 90*time.Second {
		net.Run(2 * time.Second)
	}
	fmt.Printf("t=%-6v state=%-8v\n", net.Now().Round(time.Millisecond), guard.State())

	fmt.Println("\n== state machine history ==")
	for _, tr := range guard.Transitions() {
		fmt.Printf("  %v -> %-8v at t=%v (%s)\n", tr.From, tr.To,
			tr.At.Sub(tr.At.Truncate(24*time.Hour)).Round(time.Millisecond), tr.Reason)
	}
	return nil
}

func send(from, to *floodguard.Host, n int) {
	for i := 0; i < n; i++ {
		from.Send(floodguard.UDPPacket(from, to, uint16(5000+i), uint16(7000+i), 100))
		to.Send(floodguard.UDPPacket(to, from, uint16(7000+i), uint16(5000+i), 100))
	}
}
