// Package floodguard is a Go reproduction of "FloodGuard: A DoS Attack
// Prevention Extension in Software-Defined Networks" (Wang, Xu, Gu —
// DSN 2015): a defense framework against the data-to-control plane
// saturation attack, built on a self-contained OpenFlow 1.0 stack.
//
// The package is the public facade over the building blocks in
// internal/: a discrete-event network simulator, an OpenFlow switch
// model, a POX-style reactive controller whose applications are written
// in an analyzable policy IR, the proactive flow rule analyzer (offline
// symbolic execution + runtime concretization), and the packet migration
// module (migration agent + data plane cache).
//
// Quick start:
//
//	net := floodguard.NewNetwork()
//	sw := net.AddSwitch(1, floodguard.SoftwareSwitch())
//	alice, _ := net.AddHost(sw, "alice", 1, "00:00:00:00:00:0a", "10.0.0.1")
//	bob, _ := net.AddHost(sw, "bob", 2, "00:00:00:00:00:0b", "10.0.0.2")
//	mallory, _ := net.AddHost(sw, "mallory", 3, "00:00:00:00:00:0c", "10.0.0.3")
//	net.RegisterApp(floodguard.L2Learning())
//	net.Deploy()
//	guard, _ := net.EnableFloodGuard(floodguard.DefaultConfig())
//	flood := net.NewFlooder(mallory, 42, floodguard.FloodUDP)
//	flood.Start(200)
//	net.Run(2 * time.Second)
//	fmt.Println(guard.State()) // defense
package floodguard

import (
	"fmt"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/core"
	"floodguard/internal/dpcache"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/switchsim"
	"floodguard/internal/symexec"
)

// Re-exported building blocks. The aliases make the internal types part
// of the public API surface without duplicating them.
type (
	// Config assembles a FloodGuard deployment (detection thresholds,
	// analyzer update strategy, cache dimensions, replay rate policy).
	Config = core.Config
	// Guard is a running FloodGuard instance.
	Guard = core.Guard
	// FSMState is a state of the Figure 3 machine.
	FSMState = core.FSMState
	// App couples a policy program with its state and CPU cost model.
	App = controller.App
	// Controller is the reactive controller platform.
	Controller = controller.Controller
	// Switch is a simulated OpenFlow switch.
	Switch = switchsim.Switch
	// Host is an end host attached to a switch port.
	Host = switchsim.Host
	// Flooder generates the saturation attack's spoofed traffic.
	Flooder = switchsim.Flooder
	// Profile sets a switch's capacity constants.
	Profile = switchsim.Profile
	// Program is a controller application in the policy IR.
	Program = appir.Program
	// State is a program's global variable store.
	State = appir.State
	// Cache is a data plane cache instance.
	Cache = dpcache.Cache
	// Path is one symbolic execution path of a handler.
	Path = symexec.Path
	// FloodProtocol selects the attack traffic family.
	FloodProtocol = netpkt.FloodProtocol
	// Packet is a data plane packet.
	Packet = netpkt.Packet
	// Value is a typed scalar in an application's global state.
	Value = appir.Value
	// IPAddr is an IPv4 address.
	IPAddr = netpkt.IPv4
	// MACAddr is an Ethernet address.
	MACAddr = netpkt.MAC
)

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IPAddr, error) { return netpkt.ParseIPv4(s) }

// ParseMAC parses a colon-separated Ethernet address.
func ParseMAC(s string) (MACAddr, error) { return netpkt.ParseMAC(s) }

// IPv4Value parses a dotted-quad address into a state Value (for
// updating application scalars such as the balancer's replica targets).
func IPv4Value(s string) (Value, error) {
	ip, err := netpkt.ParseIPv4(s)
	if err != nil {
		return Value{}, err
	}
	return appir.IPValue(ip), nil
}

// PortValue wraps a switch port number into a state Value.
func PortValue(p uint16) Value { return appir.U16Value(p) }

// FSM states (Figure 3).
const (
	StateIdle    = core.StateIdle
	StateInit    = core.StateInit
	StateDefense = core.StateDefense
	StateFinish  = core.StateFinish
)

// Flood traffic families.
const (
	FloodUDP   = netpkt.FloodUDP
	FloodTCP   = netpkt.FloodTCP
	FloodICMP  = netpkt.FloodICMP
	FloodMixed = netpkt.FloodMixed
)

// DefaultConfig returns the paper-faithful FloodGuard configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// SoftwareSwitch returns the Mininet-like software switch profile of the
// paper's Figure 10 environment.
func SoftwareSwitch() Profile { return switchsim.SoftwareProfile() }

// Bundled controller applications (paper Tables I and III). Each returns
// an App with its conventional initial state and a representative CPU
// cost; adjust App.CostPerEvent to taste.
func L2Learning() *App { return wrapApp(apps.L2Learning()) }
func ARPHub() *App     { return wrapApp(apps.ARPHub()) }
func L3Learning() *App { return wrapApp(apps.L3Learning()) }
func OFFirewall() *App { return wrapApp(apps.OFFirewall()) }
func MACBlocker() *App { return wrapApp(apps.MACBlocker()) }
func RouteApp() *App   { return wrapApp(apps.Route()) }

// IPBalancer returns the Table I load balancer with the default VIP and
// replica assignment.
func IPBalancer() *App { return wrapApp(apps.IPBalancer(apps.DefaultIPBalancerConfig())) }

func wrapApp(prog *appir.Program, st *appir.State) *App {
	return &App{Prog: prog, State: st, CostPerEvent: time.Millisecond}
}

// UDPPacket builds a benign UDP packet from one host to another.
func UDPPacket(from, to *Host, srcPort, dstPort uint16, payloadLen int) Packet {
	return netpkt.Flow{
		SrcMAC: from.MAC, DstMAC: to.MAC,
		SrcIP: from.IP, DstIP: to.IP,
		Proto: netpkt.ProtoUDP, SrcPort: srcPort, DstPort: dstPort,
	}.Packet(payloadLen)
}

// TCPSYN builds the first handshake packet of a new TCP flow between two
// hosts.
func TCPSYN(from, to *Host, srcPort, dstPort uint16) Packet {
	return netpkt.Flow{
		SrcMAC: from.MAC, DstMAC: to.MAC,
		SrcIP: from.IP, DstIP: to.IP,
		Proto: netpkt.ProtoTCP, SrcPort: srcPort, DstPort: dstPort,
	}.SYN()
}

// Analyze runs the offline symbolic execution (paper Algorithm 1) over an
// application program and returns its feasible paths with their path
// conditions and terminal decisions.
func Analyze(prog *Program) ([]Path, error) { return symexec.Explore(prog) }

// StateSensitiveVariables reports the global variables a program's
// handler reads — the paper's Table III content for that app.
func StateSensitiveVariables(paths []Path) []string {
	return symexec.StateSensitiveVariables(paths)
}

// ProactiveRule is one rule derived by Algorithm 2, traceable to the
// symbolic path it came from.
type ProactiveRule = symexec.ProactiveRule

// DeriveProactiveRules runs the paper's Algorithm 2: it substitutes the
// live values of the global variables into the recorded path conditions
// and converts every Modify-State path into concrete proactive flow
// rules.
func DeriveProactiveRules(paths []Path, st *State) ([]ProactiveRule, error) {
	return symexec.DeriveRules(paths, st)
}

// Network is a construction kit for simulated SDN deployments: switches,
// hosts, a reactive controller, applications, and (optionally) a
// FloodGuard instance, all on one deterministic virtual clock.
type Network struct {
	eng      *netsim.Engine
	ctrl     *controller.Controller
	switches []*Switch
	guard    *Guard
	deployed bool
}

// NewNetwork creates an empty deployment.
func NewNetwork() *Network {
	eng := netsim.NewEngine()
	c := controller.New(eng)
	c.BaseCost = 200 * time.Microsecond
	return &Network{eng: eng, ctrl: c}
}

// Controller returns the controller platform (register hooks, inspect
// per-app accounting).
func (n *Network) Controller() *Controller { return n.ctrl }

// Now returns the current virtual time since the simulation epoch.
func (n *Network) Now() time.Duration { return n.eng.Elapsed() }

// AddSwitch creates a switch with the given datapath id and profile.
func (n *Network) AddSwitch(dpid uint64, p Profile) *Switch {
	sw := switchsim.New(n.eng, dpid, p)
	sw.Start()
	n.switches = append(n.switches, sw)
	return sw
}

// AddHost attaches a host to a switch port with 1 Gbps edge links.
func (n *Network) AddHost(sw *Switch, name string, port uint16, mac, ip string) (*Host, error) {
	m, err := netpkt.ParseMAC(mac)
	if err != nil {
		return nil, fmt.Errorf("floodguard: host %s: %w", name, err)
	}
	addr, err := netpkt.ParseIPv4(ip)
	if err != nil {
		return nil, fmt.Errorf("floodguard: host %s: %w", name, err)
	}
	return switchsim.NewHost(n.eng, sw, name, port, m, addr, 1e9, 100*time.Microsecond), nil
}

// Link connects two switches with a 10 Gbps inter-switch patch link.
// For multi-switch topologies, set PerDatapath on learning apps so each
// switch keeps its own port mappings.
func (n *Network) Link(a *Switch, pa uint16, b *Switch, pb uint16) {
	switchsim.Patch(a, pa, b, pb, 10e9, 50*time.Microsecond)
}

// RegisterApp adds a controller application; dispatch order is
// registration order.
func (n *Network) RegisterApp(app *App) { n.ctrl.Register(app) }

// Deploy opens the controller sessions to every switch. Call after all
// switches and apps are in place and before EnableFloodGuard.
func (n *Network) Deploy() {
	controller.Bind(n.ctrl, n.switches...)
	n.deployed = true
}

// EnableFloodGuard attaches a FloodGuard instance protecting every
// deployed switch and starts its monitoring.
func (n *Network) EnableFloodGuard(cfg Config) (*Guard, error) {
	if !n.deployed {
		return nil, fmt.Errorf("floodguard: Deploy before EnableFloodGuard")
	}
	g, err := core.NewGuard(n.eng, n.ctrl, cfg)
	if err != nil {
		return nil, err
	}
	for _, sw := range n.switches {
		if err := g.Protect(sw); err != nil {
			return nil, err
		}
	}
	if err := g.Start(); err != nil {
		return nil, err
	}
	n.guard = g
	return g, nil
}

// NewFlooder builds a saturation attack source on a host.
func (n *Network) NewFlooder(h *Host, seed int64, proto FloodProtocol) *Flooder {
	return switchsim.NewFlooder(h, seed, proto, 64)
}

// Run advances the simulation by d of virtual time.
func (n *Network) Run(d time.Duration) { n.eng.RunFor(d) }

// RunUntil advances the simulation until cond holds or the budget is
// exhausted, polling every step. It reports whether cond held.
func (n *Network) RunUntil(cond func() bool, step, budget time.Duration) bool {
	deadline := n.eng.Elapsed() + budget
	for n.eng.Elapsed() < deadline {
		if cond() {
			return true
		}
		n.eng.RunFor(step)
	}
	return cond()
}

// Close stops all periodic work (switches, guard).
func (n *Network) Close() {
	if n.guard != nil {
		n.guard.Stop()
	}
	for _, sw := range n.switches {
		sw.Stop()
	}
}
