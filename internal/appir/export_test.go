package appir

// GlobalVersion returns the epoch of one named global: the value of the
// store-wide mutation counter at the time of that global's last real
// (non-no-op) mutation, or 0 if it was never written.
func (s *State) GlobalVersion(name string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gvers[name]
}
