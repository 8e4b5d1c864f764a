package flowtable

// Clear removes every rule.
func (t *Table) Clear() {
	t.entries = nil
	t.cls = classifier{}
	t.noteMutation()
}
