package flowtable

// Clear removes every rule.
func (t *Table) Clear() {
	t.entries = nil
	t.cls = classifier{}
	t.noteMutation()
}

// N returns the partition count.
func (s *Sharded) N() int { return len(s.parts) }
