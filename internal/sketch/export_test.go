package sketch

import "sort"

func (t *ssCore) count(key uint64) uint64 {
	if i, ok := t.idx[key]; ok {
		return t.slots[i].Count
	}
	return 0
}

// Count returns the tracked (over)estimate for key, or 0 when untracked.
func (t *SpaceSaving) Count(key uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c.count(key)
}

// Top appends the tracked entries, highest count first, to dst and
// returns it. Pass a reused slice to avoid allocation.
func (t *SpaceSaving) Top(dst []Entry) []Entry {
	t.mu.Lock()
	dst = append(dst, t.c.slots...)
	t.mu.Unlock()
	sort.Slice(dst, func(i, j int) bool { return dst[i].Count > dst[j].Count })
	return dst
}

// Reset drops every tracked key.
func (t *SpaceSaving) Reset() {
	t.mu.Lock()
	t.c.reset()
	t.mu.Unlock()
}

// Count returns the tracked (over)estimate for key, or 0 when untracked.
func (t *SpaceSavingLocal) Count(key uint64) uint64 { return t.c.count(key) }

// Decay halves every slot's count and error, dropping zeroed slots.
func (t *SpaceSavingLocal) Decay() { t.c.decay() }

// Reset drops every tracked key.
func (t *SpaceSavingLocal) Reset() { t.c.reset() }
