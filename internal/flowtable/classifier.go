// The rule index: tuple-space search over the four header fields
// openflow.Match.Matches compares unconditionally. OF 1.0's other eight
// fields are don't-cares depending on the packet (L3 under a wildcarded
// dl_type, L4 for non-TCP/UDP/ICMP, the ARP opcode riding in nw_proto,
// CIDR prefixes), so they never enter a hash key: the index only narrows
// the candidates and Matches stays the sole authority on each of them.
// A subtable that pins in_port first checks a bitmap of the ports its
// rules name (OVS's staged lookup), so a spoof on a port no rule names
// skips it without hashing.
package flowtable

import (
	"slices"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// shapeBits are the wildcard bits that select a rule's subtable.
const shapeBits = openflow.WildInPort | openflow.WildDlSrc | openflow.WildDlDst | openflow.WildDlType

// subKey is a packet's (or rule's) identity inside one subtable: the
// shape's concrete fields, the wildcarded ones left zero.
type subKey struct {
	inPort uint16
	dlType uint16
	dlSrc  netpkt.MAC
	dlDst  netpkt.MAC
}

// subtable holds every rule of one wildcard shape. Rules sharing a key
// chain through Entry.next in (priority desc, seq asc) order, so the
// first chain member that Matches is the subtable's winner.
type subtable struct {
	shape uint32
	// maxPrio bounds the priority of every rule inside from above. It
	// rises on insert and is not lowered by removals (that would take a
	// walk over the subtable); a stale bound only weakens the early exit.
	maxPrio uint16
	heads   map[subKey]*Entry
	// ports and portRules are the port stage of a shape that pins
	// in_port: bit p of ports is set while portRules[p], the number of
	// rules here naming port p, is nonzero. ports grows to the highest
	// port named, so a subtable made and dropped with one rule stays cheap.
	ports     []uint64
	portRules map[uint16]int
}

// names reports whether a packet on inPort can match a rule here: false
// only when the shape pins in_port and no rule names that port.
func (s *subtable) names(inPort uint16) bool {
	w := int(inPort / 64)
	return s.portRules == nil || w < len(s.ports) && s.ports[w]&(1<<(inPort%64)) != 0
}

// countPort adds d (±1) to port's rule count, keeping its bit in step.
func (s *subtable) countPort(port uint16, d int) {
	if s.portRules == nil {
		return
	}
	w, bit := int(port/64), uint64(1)<<(port%64)
	if s.portRules[port] += d; s.portRules[port] == 0 {
		delete(s.portRules, port)
		s.ports[w] &^= bit
		return
	}
	if w >= len(s.ports) {
		s.ports = append(s.ports, make([]uint64, w+1-len(s.ports))...)
	}
	s.ports[w] |= bit
}

func (s *subtable) key(inPort uint16, dlSrc, dlDst netpkt.MAC, dlType uint16) subKey {
	var k subKey
	if s.shape&openflow.WildInPort == 0 {
		k.inPort = inPort
	}
	if s.shape&openflow.WildDlSrc == 0 {
		k.dlSrc = dlSrc
	}
	if s.shape&openflow.WildDlDst == 0 {
		k.dlDst = dlDst
	}
	if s.shape&openflow.WildDlType == 0 {
		k.dlType = dlType
	}
	return k
}

func (s *subtable) ruleKey(m *openflow.Match) subKey {
	return s.key(m.InPort, m.DlSrc, m.DlDst, m.DlType)
}

// classifier is the set of subtables. It starts empty and every map in
// it grows with the rules installed.
type classifier struct {
	subs []subtable // maxPrio desc; at most 16 (one per shape)
}

// before is the table's match order: priority desc, first-installed
// first among equals.
func (e *Entry) before(o *Entry) bool {
	return e.Priority > o.Priority || e.Priority == o.Priority && e.seq < o.seq
}

// find returns the first rule in match order that p satisfies, and how
// many subtables it hashed into on the way (the port stage's witness).
// It writes nothing, so any number of readers may run it between
// mutations.
//
// Subtables are visited by descending maxPrio: once the bound of the
// next one is below the best candidate's priority nothing further can
// win. An equal bound must still be visited, because an equal-priority
// rule there may have been installed first. A subtable whose port
// stage does not name inPort holds no rule p can match and is skipped.
func (c *classifier) find(p *netpkt.Packet, inPort uint16) (best *Entry, probed int) {
	for i := range c.subs {
		s := &c.subs[i]
		if best != nil && s.maxPrio < best.Priority {
			break
		}
		if !s.names(inPort) {
			continue
		}
		probed++
		for e := s.heads[s.key(inPort, p.EthSrc, p.EthDst, p.EthType)]; e != nil && (best == nil || e.before(best)); e = e.next {
			if e.Match.Matches(p, inPort) {
				best = e
				break
			}
		}
	}
	return best, probed
}

// get resolves a strict identity — OpenFlow's "identical match and
// priority" — to its installed rule, nil if none. Identical matches have
// the same shape and key, so the rule can only be in that one chain, and
// the chain's order bounds the walk to the rules at or above priority.
func (c *classifier) get(m *openflow.Match, priority uint16) *Entry {
	i := c.subIndex(m)
	if i < 0 {
		return nil
	}
	s := &c.subs[i]
	for e := s.heads[s.ruleKey(m)]; e != nil && e.Priority >= priority; e = e.next {
		if e.Priority == priority && e.Match.Equal(m) {
			return e
		}
	}
	return nil
}

// insert indexes a rule whose identity is not installed. Its place in
// the chain follows from (priority, seq), so an overwriting add that
// inherits the old rule's seq lands where the old rule was.
func (c *classifier) insert(e *Entry) {
	i := c.subIndex(&e.Match)
	if i < 0 {
		i = len(c.subs)
		s := subtable{shape: e.Match.Wildcards & shapeBits, maxPrio: e.Priority, heads: make(map[subKey]*Entry)}
		if s.shape&openflow.WildInPort == 0 {
			s.portRules = make(map[uint16]int)
		}
		c.subs = append(c.subs, s)
	}
	s := &c.subs[i]
	s.countPort(e.Match.InPort, 1)
	k := s.ruleKey(&e.Match)
	if head := s.heads[k]; head == nil || e.before(head) {
		e.next = head
		s.heads[k] = e
	} else {
		prev := head
		for prev.next != nil && prev.next.before(e) {
			prev = prev.next
		}
		e.next = prev.next
		prev.next = e
	}
	if e.Priority > s.maxPrio {
		s.maxPrio = e.Priority
	}
	for ; i > 0 && c.subs[i-1].maxPrio < c.subs[i].maxPrio; i-- {
		c.subs[i-1], c.subs[i] = c.subs[i], c.subs[i-1]
	}
}

// remove unindexes an installed rule, dropping its subtable with the
// last rule in it so the shape stops costing lookups a probe.
func (c *classifier) remove(e *Entry) {
	i := c.subIndex(&e.Match)
	s := &c.subs[i]
	s.countPort(e.Match.InPort, -1)
	k := s.ruleKey(&e.Match)
	if s.heads[k] == e {
		if e.next == nil {
			delete(s.heads, k)
		} else {
			s.heads[k] = e.next
		}
	} else {
		prev := s.heads[k]
		for prev.next != e {
			prev = prev.next
		}
		prev.next = e.next
	}
	e.next = nil
	if len(s.heads) == 0 {
		c.subs = slices.Delete(c.subs, i, i+1)
	}
}

// subIndex locates the subtable of m's shape, -1 if there is none.
func (c *classifier) subIndex(m *openflow.Match) int {
	shape := m.Wildcards & shapeBits
	return slices.IndexFunc(c.subs, func(s subtable) bool { return s.shape == shape })
}
