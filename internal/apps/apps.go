// Package apps contains the controller applications of the paper's
// evaluation, written in the appir policy IR: the three Table I samples
// (arp_hub, ip_balancer, route) and the five Figure 12/13 subjects
// (l2_learning, ip_balancer, l3_learning, of_firewall, mac_blocker).
//
// Each constructor returns the program plus the conventional initial
// state. State-sensitive variables are declared per the paper's
// Table III; arp_hub is the all-static example.
package apps

import (
	"floodguard/internal/appir"
	"floodguard/internal/netpkt"
)

// Well-known priorities used by the bundled applications.
const (
	PrioDrop    uint16 = 200 // security drops beat forwarding rules
	PrioForward uint16 = 100
	PrioCoarse  uint16 = 50 // wildcard-ish rules (balancer halves, routes)
)

// DefaultIdleTimeout (seconds) for reactively installed rules, mirroring
// POX l2_learning's idle_timeout=10.
const DefaultIdleTimeout uint16 = 10

func u16c(v uint16) appir.Expr { return appir.Const{V: appir.U16Value(v)} }
func u8c(v uint8) appir.Expr   { return appir.Const{V: appir.U8Value(v)} }
func ipc(s string) appir.Expr  { return appir.Const{V: appir.IPValue(netpkt.MustIPv4(s))} }

// L2Learning is the POX l2_learning pair: program + fresh state.
//
// Control flow (paper Figure 5):
//
//	learn macToPort[pkt.dl_src] = pkt.in_port
//	if pkt.dl_dst == BROADCAST        -> flood (packet_out)
//	elif pkt.dl_dst not in macToPort  -> flood (packet_out)
//	else                              -> install dl_dst=X -> output macToPort[X]
func L2Learning() (*appir.Program, *appir.State) {
	p := &appir.Program{
		Name: "l2_learning",
		Globals: []appir.GlobalDecl{{
			Name:           "macToPort",
			Kind:           appir.GlobalTable,
			KeyKind:        appir.KindMAC,
			ValKind:        appir.KindU16,
			Description:    "MAC address to switch port mapping learned from packet_in events",
			StateSensitive: true,
		}},
		Handler: []appir.Stmt{
			appir.Learn{Table: "macToPort", Key: appir.FieldRef{F: appir.FEthSrc}, Val: appir.FieldRef{F: appir.FInPort}},
			appir.If{
				Cond: appir.FieldEq(appir.FEthDst, appir.MACValue(netpkt.Broadcast)),
				Then: []appir.Stmt{appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}}},
				Else: []appir.Stmt{appir.If{
					Cond: appir.Not{A: appir.FieldIn(appir.FEthDst, "macToPort")},
					Then: []appir.Stmt{appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}}},
					Else: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
						Match: []appir.MatchField{{
							F:   appir.FEthDst,
							Val: appir.FieldRef{F: appir.FEthDst},
						}},
						Priority:    PrioForward,
						IdleTimeout: DefaultIdleTimeout,
						Actions: []appir.ActionTemplate{appir.ActOutput{
							Port: appir.FieldLookup(appir.FEthDst, "macToPort"),
						}},
					}}},
				}},
			},
		},
	}
	return p, appir.NewState()
}

// ARPHub is the Table I arp_hub application: drop all LLDP frames,
// broadcast all ARP packets. Both policies are static.
func ARPHub() (*appir.Program, *appir.State) {
	p := &appir.Program{
		Name:    "arp_hub",
		Globals: nil, // static policies only
		Handler: []appir.Stmt{
			appir.If{
				Cond: appir.FieldEq(appir.FEthType, appir.U16Value(netpkt.EtherTypeLLDP)),
				Then: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
					Match: []appir.MatchField{{
						F:   appir.FEthType,
						Val: u16c(netpkt.EtherTypeLLDP),
					}},
					Priority: PrioDrop,
					Actions:  nil, // drop
				}}},
				Else: []appir.Stmt{appir.If{
					Cond: appir.FieldEq(appir.FEthType, appir.U16Value(netpkt.EtherTypeARP)),
					Then: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
						Match: []appir.MatchField{{
							F:   appir.FEthType,
							Val: u16c(netpkt.EtherTypeARP),
						}},
						Priority: PrioCoarse,
						Actions:  []appir.ActionTemplate{appir.ActFlood{}},
					}}},
					Else: []appir.Stmt{appir.Drop{}},
				}},
			},
		},
	}
	return p, appir.NewState()
}

// The paper's Table I balancer: the public VIP 10.10.10.10, sources with
// the high bit set rewritten to 192.168.0.1 on port 2, the rest to
// 192.168.0.2 on port 3.
const (
	balancerVIP       netpkt.IPv4 = 10<<24 | 10<<16 | 10<<8 | 10
	balancerReplicaHi netpkt.IPv4 = 192<<24 | 168<<16 | 1
	balancerReplicaLo netpkt.IPv4 = 192<<24 | 168<<16 | 2
	balancerPortHi    uint16      = 2
	balancerPortLo    uint16      = 3
)

// IPBalancer is the Table I load balancer: traffic to the public VIP is
// split on the source address's highest-order bit and rewritten to one of
// two server replicas. The replica addresses and ports are state-
// sensitive scalars (they change when the balancer repartitions, the
// Figure 8 dynamics example); the returned state starts them at Table
// I's values.
func IPBalancer() (*appir.Program, *appir.State) {
	st := appir.NewState()
	st.SetScalar("vip", appir.IPValue(balancerVIP))
	st.SetScalar("replicaHi", appir.IPValue(balancerReplicaHi))
	st.SetScalar("replicaLo", appir.IPValue(balancerReplicaLo))
	st.SetScalar("portHi", appir.U16Value(balancerPortHi))
	st.SetScalar("portLo", appir.U16Value(balancerPortLo))

	installHalf := func(prefix string, replica, port string) appir.Stmt {
		return appir.Install{Rule: appir.RuleTemplate{
			Match: []appir.MatchField{
				{F: appir.FEthType, Val: u16c(netpkt.EtherTypeIPv4)},
				{F: appir.FNwDst, Val: appir.ScalarRef{Name: "vip"}},
				{F: appir.FNwSrc, Val: ipc(prefix), PrefixLen: 1},
			},
			Priority: PrioCoarse,
			Actions: []appir.ActionTemplate{
				appir.ActSetNwDst{IP: appir.ScalarRef{Name: replica}},
				appir.ActOutput{Port: appir.ScalarRef{Name: port}},
			},
		}}
	}

	p := &appir.Program{
		Name: "ip_balancer",
		Globals: []appir.GlobalDecl{
			{Name: "vip", Kind: appir.GlobalScalar, ValKind: appir.KindIP,
				Description: "public service address being balanced"},
			{Name: "replicaHi", Kind: appir.GlobalScalar, ValKind: appir.KindIP,
				Description: "private replica for sources with MSB=1", StateSensitive: true},
			{Name: "replicaLo", Kind: appir.GlobalScalar, ValKind: appir.KindIP,
				Description: "private replica for sources with MSB=0", StateSensitive: true},
			{Name: "portHi", Kind: appir.GlobalScalar, ValKind: appir.KindU16,
				Description: "switch port of the MSB=1 replica", StateSensitive: true},
			{Name: "portLo", Kind: appir.GlobalScalar, ValKind: appir.KindU16,
				Description: "switch port of the MSB=0 replica", StateSensitive: true},
		},
		Handler: []appir.Stmt{
			appir.If{
				Cond: appir.And{
					A: appir.FieldEq(appir.FEthType, appir.U16Value(netpkt.EtherTypeIPv4)),
					B: appir.FieldEqScalar(appir.FNwDst, "vip"),
				},
				Then: []appir.Stmt{appir.If{
					Cond: appir.HighBit{A: appir.FieldRef{F: appir.FNwSrc}},
					Then: []appir.Stmt{installHalf("128.0.0.0", "replicaHi", "portHi")},
					Else: []appir.Stmt{installHalf("0.0.0.0", "replicaLo", "portLo")},
				}},
				Else: []appir.Stmt{appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}}},
			},
		},
	}
	return p, st
}

// L3Learning mirrors POX l3_learning: it learns IP-to-port bindings from
// ARP and IP traffic and installs per-destination forwarding rules.
func L3Learning() (*appir.Program, *appir.State) {
	learnSrc := appir.Learn{
		Table: "ipToPort",
		Key:   appir.FieldRef{F: appir.FNwSrc},
		Val:   appir.FieldRef{F: appir.FInPort},
	}
	p := &appir.Program{
		Name: "l3_learning",
		Globals: []appir.GlobalDecl{{
			Name:           "ipToPort",
			Kind:           appir.GlobalTable,
			KeyKind:        appir.KindIP,
			ValKind:        appir.KindU16,
			Description:    "IP address to switch port mapping learned from ARP and IP traffic",
			StateSensitive: true,
		}},
		Handler: []appir.Stmt{
			appir.If{
				Cond: appir.FieldEq(appir.FEthType, appir.U16Value(netpkt.EtherTypeARP)),
				Then: []appir.Stmt{
					learnSrc,
					appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}},
				},
				Else: []appir.Stmt{appir.If{
					Cond: appir.FieldEq(appir.FEthType, appir.U16Value(netpkt.EtherTypeIPv4)),
					Then: []appir.Stmt{
						learnSrc,
						appir.If{
							Cond: appir.FieldIn(appir.FNwDst, "ipToPort"),
							Then: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
								Match: []appir.MatchField{
									{F: appir.FEthType, Val: u16c(netpkt.EtherTypeIPv4)},
									{F: appir.FNwDst, Val: appir.FieldRef{F: appir.FNwDst}},
								},
								Priority:    PrioForward,
								IdleTimeout: DefaultIdleTimeout,
								Actions: []appir.ActionTemplate{appir.ActOutput{
									Port: appir.FieldLookup(appir.FNwDst, "ipToPort"),
								}},
							}}},
							Else: []appir.Stmt{appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}}},
						},
					},
					Else: []appir.Stmt{appir.Drop{}},
				}},
			},
		},
	}
	return p, appir.NewState()
}

// OFFirewall is the of_firewall application: blocked TCP service ports
// and blocked source networks install drop rules; everything else is
// routed by destination prefix. Its layered, multi-table program is the
// most complex of the five — the reason it tops Figure 13.
func OFFirewall() (*appir.Program, *appir.State) {
	st := appir.NewState()
	p := &appir.Program{
		Name: "of_firewall",
		Globals: []appir.GlobalDecl{
			{Name: "blockedTCPPorts", Kind: appir.GlobalTable, KeyKind: appir.KindU16, ValKind: appir.KindBool,
				Description: "TCP destination ports denied by the firewall policy", StateSensitive: true},
			{Name: "blockedSrcNets", Kind: appir.GlobalPrefixTable, ValKind: appir.KindBool,
				Description: "source networks denied by the firewall policy", StateSensitive: true},
			{Name: "routeTable", Kind: appir.GlobalPrefixTable, ValKind: appir.KindU16,
				Description: "destination prefix to egress port routing table", StateSensitive: true},
		},
		Handler: []appir.Stmt{
			appir.If{
				Cond: appir.FieldEq(appir.FEthType, appir.U16Value(netpkt.EtherTypeIPv4)),
				Then: []appir.Stmt{appir.If{
					Cond: appir.And{
						A: appir.FieldEq(appir.FNwProto, appir.U8Value(netpkt.ProtoTCP)),
						B: appir.FieldIn(appir.FTpDst, "blockedTCPPorts"),
					},
					Then: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
						Match: []appir.MatchField{
							{F: appir.FEthType, Val: u16c(netpkt.EtherTypeIPv4)},
							{F: appir.FNwProto, Val: u8c(netpkt.ProtoTCP)},
							{F: appir.FTpDst, Val: appir.FieldRef{F: appir.FTpDst}},
						},
						Priority: PrioDrop,
						Actions:  nil, // drop
					}}},
					Else: []appir.Stmt{appir.If{
						Cond: appir.FieldInPrefixes(appir.FNwSrc, "blockedSrcNets"),
						Then: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
							Match: []appir.MatchField{
								{F: appir.FEthType, Val: u16c(netpkt.EtherTypeIPv4)},
								{F: appir.FNwSrc, Val: appir.FieldRef{F: appir.FNwSrc}},
							},
							Priority: PrioDrop,
							Actions:  nil,
						}}},
						Else: []appir.Stmt{appir.If{
							Cond: appir.FieldInPrefixes(appir.FNwDst, "routeTable"),
							Then: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
								Match: []appir.MatchField{
									{F: appir.FEthType, Val: u16c(netpkt.EtherTypeIPv4)},
									{F: appir.FNwDst, Val: appir.FieldRef{F: appir.FNwDst}},
								},
								Priority:    PrioForward,
								IdleTimeout: DefaultIdleTimeout,
								Actions: []appir.ActionTemplate{appir.ActOutput{
									Port: appir.FieldLookupPrefix(appir.FNwDst, "routeTable"),
								}},
							}}},
							Else: []appir.Stmt{appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}}},
						}},
					}},
				}},
				Else: []appir.Stmt{appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}}},
			},
		},
	}
	return p, st
}

// MACBlocker denies traffic from administratively blocked MAC addresses
// and floods the rest.
func MACBlocker() (*appir.Program, *appir.State) {
	p := &appir.Program{
		Name: "mac_blocker",
		Globals: []appir.GlobalDecl{{
			Name:           "blockedMACs",
			Kind:           appir.GlobalTable,
			KeyKind:        appir.KindMAC,
			ValKind:        appir.KindBool,
			Description:    "administratively blocked source MAC addresses",
			StateSensitive: true,
		}},
		Handler: []appir.Stmt{
			appir.If{
				Cond: appir.FieldIn(appir.FEthSrc, "blockedMACs"),
				Then: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
					Match: []appir.MatchField{{
						F:   appir.FEthSrc,
						Val: appir.FieldRef{F: appir.FEthSrc},
					}},
					Priority: PrioDrop,
					Actions:  nil,
				}}},
				Else: []appir.Stmt{appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}}},
			},
		},
	}
	return p, appir.NewState()
}

// Route is the Table I route application: it forwards IPv4 traffic by
// destination prefix from a routing table that follows topology changes.
func Route() (*appir.Program, *appir.State) {
	p := &appir.Program{
		Name: "route",
		Globals: []appir.GlobalDecl{{
			Name:           "routingTable",
			Kind:           appir.GlobalPrefixTable,
			ValKind:        appir.KindU16,
			Description:    "destination prefix to egress port table tied to the current topology",
			StateSensitive: true,
		}},
		Handler: []appir.Stmt{
			appir.If{
				Cond: appir.And{
					A: appir.FieldEq(appir.FEthType, appir.U16Value(netpkt.EtherTypeIPv4)),
					B: appir.FieldInPrefixes(appir.FNwDst, "routingTable"),
				},
				Then: []appir.Stmt{appir.Install{Rule: appir.RuleTemplate{
					Match: []appir.MatchField{
						{F: appir.FEthType, Val: u16c(netpkt.EtherTypeIPv4)},
						{F: appir.FNwDst, Val: appir.FieldRef{F: appir.FNwDst}},
					},
					Priority:    PrioForward,
					IdleTimeout: DefaultIdleTimeout,
					Actions: []appir.ActionTemplate{appir.ActOutput{
						Port: appir.FieldLookupPrefix(appir.FNwDst, "routingTable"),
					}},
				}}},
				Else: []appir.Stmt{appir.PacketOut{Actions: []appir.ActionTemplate{appir.ActFlood{}}}},
			},
		},
	}
	return p, appir.NewState()
}

// EvaluationSet returns the five applications of the Figure 12/13
// evaluation with their initial states, in the paper's order.
func EvaluationSet() ([]*appir.Program, []*appir.State) {
	var progs []*appir.Program
	var states []*appir.State
	add := func(p *appir.Program, s *appir.State) {
		progs = append(progs, p)
		states = append(states, s)
	}
	add(L2Learning())
	add(IPBalancer())
	add(L3Learning())
	add(OFFirewall())
	add(MACBlocker())
	return progs, states
}
