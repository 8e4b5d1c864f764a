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
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"slices"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// shapeBits are the wildcard bits that select a rule's subtable.
const shapeBits = openflow.WildInPort | openflow.WildDlSrc | openflow.WildDlDst | openflow.WildDlType

// key is a packet's (or rule's) four classifier fields packed into two
// words, once per lookup: dl_dst in the low 48 bits of dst and dl_type in
// its top 16, dl_src and in_port the same way in src. A subtable masks it
// with its shape, so the fields the shape wildcards read zero. A struct,
// not an array, so that calls pass it in registers.
type key struct{ dst, src uint64 }

func packKey(inPort uint16, dlSrc, dlDst *netpkt.MAC, dlType uint16) key {
	return key{mac48(dlDst) | uint64(dlType)<<48, mac48(dlSrc) | uint64(inPort)<<48}
}

// and keeps the bits of k that m sets.
func (k key) and(m key) key { return key{k.dst & m.dst, k.src & m.src} }

// mac48 reads m where it lies: a MAC passed by value is copied to the
// stack, and the wider loads that read it back stall on that copy.
func mac48(m *netpkt.MAC) uint64 {
	return uint64(binary.LittleEndian.Uint32(m[0:4])) | uint64(binary.LittleEndian.Uint16(m[4:6]))<<32
}

// shapeMask keeps the fields a shape pins.
func shapeMask(shape uint32) key {
	const mac, top = 1<<48 - 1, 0xffff << 48
	var m key
	if shape&openflow.WildDlDst == 0 {
		m.dst |= mac
	}
	if shape&openflow.WildDlType == 0 {
		m.dst |= top
	}
	if shape&openflow.WildDlSrc == 0 {
		m.src |= mac
	}
	if shape&openflow.WildInPort == 0 {
		m.src |= top
	}
	return m
}

// slot is one bucket of a subtable's index: a masked key and the head of
// its rule chain. A nil head is an empty slot.
type slot struct {
	k    key
	head *Entry
}

// minSlots is a new subtable's index size.
const minSlots = 8

// subtable holds every rule of one wildcard shape. Rules sharing a key
// chain through Entry.next in (priority desc, seq asc) order, so the
// first chain member that Matches is the subtable's winner.
//
// The chains' heads sit in an open-addressed array (linear probing,
// power-of-two length, at most a quarter full), found by a hash of the
// masked key under the subtable's own random seed: the attacker picks
// the keys a replayed spoof installs, but not where they land. A delete
// shifts the rest of its probe run back over the hole (no tombstones),
// so every key stays reachable from its home slot without crossing an
// empty one, and a miss stops at the first empty slot.
type subtable struct {
	shape uint32
	// maxPrio bounds the priority of every rule inside from above. It
	// rises on insert and is not lowered by removals (that would take a
	// walk over the subtable); a stale bound only weakens the early exit.
	maxPrio uint16
	mask    key
	seed    [2]uint64
	slots   []slot
	// used has bit i set while slots[i] is occupied. A miss whose home
	// slot is empty, as at least three in four random keys are, reads one
	// word of it and never touches the array, 192 times its size.
	used  []uint64
	shift uint8 // 64 - log2(len(slots))
	keys  int   // occupied slots
	// ports and portRules are the port stage of a shape that pins
	// in_port: bit p of ports is set while portRules[p], the number of
	// rules here naming port p, is nonzero. ports grows to the highest
	// port named, so a subtable made and dropped with one rule stays cheap.
	ports     []uint64
	portRules map[uint16]int
}

func newSubtable(shape uint32, maxPrio uint16) subtable {
	s := subtable{
		shape:   shape,
		maxPrio: maxPrio,
		mask:    shapeMask(shape),
		seed:    [2]uint64{rand.Uint64(), rand.Uint64()},
		slots:   make([]slot, minSlots),
		used:    make([]uint64, usedWords(minSlots)),
		shift:   uint8(64 - bits.TrailingZeros(minSlots)),
	}
	if shape&openflow.WildInPort == 0 {
		s.portRules = make(map[uint16]int)
	}
	return s
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

// hash is wyhash's mix of a masked key's two words under the seed: a
// 64×64→128-bit multiply folded high into low.
func (s *subtable) hash(k key) uint64 {
	hi, lo := bits.Mul64(k.dst^s.seed[0], k.src^s.seed[1])
	return hi ^ lo
}

// home is the slot a probe for hash h starts at: the top bits of
// Fibonacci hashing's multiply. The mix alone, masked to its low bits,
// clusters sequential keys under a shape that wildcards a whole word:
// 193 slots in one probe at 16 384 rules
// (TestClassifierProbeBoundAttackerKeys).
func (s *subtable) home(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 >> s.shift }

// slotFor returns the index of masked key k's slot, or of the empty slot
// that ends its probe run.
func (s *subtable) slotFor(k key) uint64 {
	i := s.home(s.hash(k))
	if !s.isUsed(i) {
		return i
	}
	return s.walk(k, i)
}

// isUsed reports whether slot i is occupied.
func (s *subtable) isUsed(i uint64) bool { return s.used[i/64]&(1<<(i%64)) != 0 }

// walk is slotFor past an occupied slot i.
func (s *subtable) walk(k key, i uint64) uint64 {
	m := uint64(len(s.slots) - 1)
	for s.slots[i].head != nil && s.slots[i].k != k {
		i = (i + 1) & m
	}
	return i
}

// usedWords is the length of the used bitmap of an n-slot index.
func usedWords(n int) int { return (n + 63) / 64 }

// fill puts sl in the empty slot i.
func (s *subtable) fill(i uint64, sl slot) {
	s.slots[i] = sl
	s.used[i/64] |= 1 << (i % 64)
}

// chain returns the rule chain under packed key k, nil if none.
func (s *subtable) chain(k key) *Entry {
	return s.slots[s.slotFor(k.and(s.mask))].head
}

// setChain makes head (nil: none) the chain under packed key k. A new
// key doubles the array first if it would be more than a quarter full
// (a miss walks to the first empty slot; DESIGN.md §17 has what half
// full cost); the last rule of a key frees its slot.
func (s *subtable) setChain(k key, head *Entry) {
	k = k.and(s.mask)
	i := s.slotFor(k)
	switch {
	case s.slots[i].head != nil && head != nil:
		s.slots[i].head = head
	case head != nil:
		if 4*(s.keys+1) > len(s.slots) {
			s.grow()
			i = s.slotFor(k)
		}
		s.fill(i, slot{k: k, head: head})
		s.keys++
	case s.slots[i].head != nil:
		s.deleteSlot(i)
	}
}

// deleteSlot empties slot i and walks the rest of its probe run, moving
// back into the hole every key whose home is not between the hole and
// where the key sits (Knuth's Algorithm R).
func (s *subtable) deleteSlot(i uint64) {
	m := uint64(len(s.slots) - 1)
	for j := (i + 1) & m; s.slots[j].head != nil; j = (j + 1) & m {
		if h := s.home(s.hash(s.slots[j].k)); (j-h)&m >= (j-i)&m {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = slot{}
	s.used[i/64] &^= 1 << (i % 64)
	s.keys--
}

// grow doubles the index and re-homes every key.
func (s *subtable) grow() {
	old := s.slots
	s.slots = make([]slot, 2*len(old))
	s.used = make([]uint64, usedWords(len(s.slots)))
	s.shift--
	for _, sl := range old {
		if sl.head != nil {
			s.fill(s.slotFor(sl.k), sl)
		}
	}
}

// classifier is the set of subtables. It starts empty and every index in
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
	k := packKey(inPort, &p.EthSrc, &p.EthDst, p.EthType)
	for i := range c.subs {
		s := &c.subs[i]
		if best != nil && s.maxPrio < best.Priority {
			break
		}
		if !s.names(inPort) {
			continue
		}
		probed++
		// chain, written out so that the probe makes no call.
		mk := k.and(s.mask)
		h := s.home(s.hash(mk))
		if !s.isUsed(h) {
			continue
		}
		for e := s.slots[s.walk(mk, h)].head; e != nil && (best == nil || e.before(best)); e = e.next {
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
	for e := s.chain(ruleKey(m)); e != nil && e.Priority >= priority; e = e.next {
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
		c.subs = append(c.subs, newSubtable(e.Match.Wildcards&shapeBits, e.Priority))
	}
	s := &c.subs[i]
	s.countPort(e.Match.InPort, 1)
	k := ruleKey(&e.Match)
	if head := s.chain(k); head == nil || e.before(head) {
		e.next = head
		s.setChain(k, e)
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
	k := ruleKey(&e.Match)
	if head := s.chain(k); head == e {
		s.setChain(k, e.next)
	} else {
		prev := head
		for prev.next != e {
			prev = prev.next
		}
		prev.next = e.next
	}
	e.next = nil
	if s.keys == 0 {
		c.subs = slices.Delete(c.subs, i, i+1)
	}
}

func ruleKey(m *openflow.Match) key {
	return packKey(m.InPort, &m.DlSrc, &m.DlDst, m.DlType)
}

// subIndex locates the subtable of m's shape, -1 if there is none.
func (c *classifier) subIndex(m *openflow.Match) int {
	shape := m.Wildcards & shapeBits
	return slices.IndexFunc(c.subs, func(s subtable) bool { return s.shape == shape })
}
