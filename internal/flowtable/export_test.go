package flowtable

// Clear removes every rule.
func (t *Table) Clear() {
	t.entries = nil
	t.cls = classifier{}
	t.noteMutation()
}

// N returns the partition count.
func (s *Sharded) N() int { return len(s.parts) }

// PartitionFor returns the partition owning ingress port p — the one a
// lookup for a packet arriving on p must consult.
func (s *Sharded) PartitionFor(inPort uint16) *Table {
	return s.parts[int(inPort)%len(s.parts)]
}
