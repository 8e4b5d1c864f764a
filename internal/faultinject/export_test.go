package faultinject

// Count returns how many times fault f has been injected.
func (in *Injector) Count(f Fault) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if f < 0 || f >= numFaults {
		return 0
	}
	return in.counts[f]
}
