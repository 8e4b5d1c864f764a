package sketch

import (
	"sort"
	"sync"
)

// Entry is one heavy-hitter candidate: its key, the (over)estimated
// count, and the maximum overestimation error inherited from the slot it
// evicted.
type Entry struct {
	Key   uint64
	Count uint64
	Err   uint64
}

// ssCore is the unlocked Metwally et al. stream-summary shared by the
// mutex-guarded SpaceSaving and the single-goroutine SpaceSavingLocal:
// it tracks at most capacity candidate keys, replacing the minimum-count
// slot when a new key arrives, so every key whose true frequency exceeds
// N/capacity is guaranteed to be present. observe is O(1) for tracked
// keys and O(log capacity) amortised on eviction.
//
// The eviction victim is exactly the lowest-indexed slot among those with
// the minimum Count, and slots keeps its order: every seeded output
// downstream depends on both. The victim comes from a lazily repaired
// min-heap of slot indices ordered by (seen, index), where seen[i] is
// slot i's Count when the heap last placed it. Between decays counts only
// grow, so seen[i] <= Count always; a root whose seen is current is
// therefore the true minimum (any other slot has Count >= seen >= the
// root's, and a larger index on a tie), and a stale root is refreshed and
// sifted down — once per increment it absorbed, which is what bounds the
// amortised cost. A tracked increment never touches the heap.
type ssCore struct {
	cap   int
	slots []Entry
	idx   map[uint64]int // key -> slot index
	heap  []int32        // valid iff len(heap) == len(slots); rebuilt on demand
	seen  []uint64       // per slot, see above
}

func newSSCore(capacity int) ssCore {
	if capacity <= 0 {
		capacity = 64
	}
	return ssCore{
		cap:   capacity,
		slots: make([]Entry, 0, capacity),
		idx:   make(map[uint64]int, capacity*2),
		heap:  make([]int32, 0, capacity),
		seen:  make([]uint64, capacity),
	}
}

func (t *ssCore) observe(key uint64, inc uint64) {
	if i, ok := t.idx[key]; ok {
		t.slots[i].Count += inc
		return
	}
	if len(t.slots) < t.cap {
		t.idx[key] = len(t.slots)
		t.slots = append(t.slots, Entry{Key: key, Count: inc})
		return
	}
	// Evict the minimum-count slot (the evicted slot's count becomes the
	// new key's error bound, per the algorithm).
	min := t.victim()
	old := t.slots[min]
	delete(t.idx, old.Key)
	t.idx[key] = min
	t.slots[min] = Entry{Key: key, Count: old.Count + inc, Err: old.Count}
}

// victim returns the lowest index among the minimum-Count slots. It
// leaves that slot at the heap root with a stale seen, so the caller's
// overwrite is repaired by the next call like any other increment.
func (t *ssCore) victim() int {
	if len(t.heap) != len(t.slots) {
		t.heap = t.heap[:0]
		for i := range t.slots {
			t.heap = append(t.heap, int32(i))
			t.seen[i] = t.slots[i].Count
		}
		for i := len(t.heap)/2 - 1; i >= 0; i-- {
			t.siftDown(i)
		}
	}
	for {
		r := t.heap[0]
		if t.seen[r] == t.slots[r].Count {
			return int(r)
		}
		t.seen[r] = t.slots[r].Count
		t.siftDown(0)
	}
}

// before is the heap order: (seen, index) ascending.
func (t *ssCore) before(a, b int32) bool {
	return t.seen[a] < t.seen[b] || t.seen[a] == t.seen[b] && a < b
}

func (t *ssCore) siftDown(i int) {
	h := t.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && t.before(h[c+1], h[c]) {
			c++
		}
		if !t.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (t *ssCore) count(key uint64) uint64 {
	if i, ok := t.idx[key]; ok {
		return t.slots[i].Count
	}
	return 0
}

func (t *ssCore) decay() {
	keep := t.slots[:0]
	for _, e := range t.slots {
		e.Count /= 2
		e.Err /= 2
		if e.Count > 0 {
			keep = append(keep, e)
		} else {
			delete(t.idx, e.Key)
		}
	}
	t.slots = keep
	for i, e := range t.slots {
		t.idx[e.Key] = i
	}
	t.heap = t.heap[:0] // counts shrank and indices moved
}

func (t *ssCore) reset() {
	t.slots = t.slots[:0]
	t.heap = t.heap[:0]
	clear(t.idx)
}

// SpaceSaving is the shared stream-summary: the core guarded by a mutex
// so Top can be called from a telemetry scrape while a packet path
// Observes.
type SpaceSaving struct {
	mu sync.Mutex
	c  ssCore
}

// NewSpaceSaving builds a summary over at most capacity keys.
func NewSpaceSaving(capacity int) *SpaceSaving {
	return &SpaceSaving{c: newSSCore(capacity)}
}

// Observe credits inc to key, evicting the current minimum slot if the
// summary is full and key is untracked.
func (t *SpaceSaving) Observe(key uint64, inc uint64) {
	t.mu.Lock()
	t.c.observe(key, inc)
	t.mu.Unlock()
}

// Count returns the tracked (over)estimate for key, or 0 when untracked.
func (t *SpaceSaving) Count(key uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c.count(key)
}

// Len returns how many keys are currently tracked.
func (t *SpaceSaving) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.c.slots)
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

// Decay halves every slot's count and error, matching the count-min
// sketch's exponential horizon so the two structures age together.
// Slots decayed to zero are dropped.
func (t *SpaceSaving) Decay() {
	t.mu.Lock()
	t.c.decay()
	t.mu.Unlock()
}

// Reset drops every tracked key.
func (t *SpaceSaving) Reset() {
	t.mu.Lock()
	t.c.reset()
	t.mu.Unlock()
}

// Merge folds other's entries into t by Observing each one — the
// standard space-saving merge bound: the result tracks every key heavy
// in the union within the combined error.
func (t *SpaceSaving) Merge(other *SpaceSaving) {
	other.mu.Lock()
	entries := append([]Entry(nil), other.c.slots...)
	other.mu.Unlock()
	for _, e := range entries {
		t.Observe(e.Key, e.Count)
	}
}

// AbsorbLocal folds a shard-local summary into t under one lock
// acquisition and resets the local — the window-boundary merge of the
// run-to-completion engine. The caller must be o's owner goroutine.
func (t *SpaceSaving) AbsorbLocal(o *SpaceSavingLocal) {
	t.mu.Lock()
	for _, e := range o.c.slots {
		t.c.observe(e.Key, e.Count)
	}
	t.mu.Unlock()
	o.c.reset()
}

// SpaceSavingLocal is the unlocked stream-summary for a run-to-completion
// shard: exactly one goroutine may touch it, so Observe takes no mutex
// and performs no allocation once the slot array is full. Fold it into a
// shared SpaceSaving at window boundaries with AbsorbLocal.
type SpaceSavingLocal struct {
	c ssCore
}

// NewSpaceSavingLocal builds an unlocked summary over at most capacity
// keys.
func NewSpaceSavingLocal(capacity int) *SpaceSavingLocal {
	return &SpaceSavingLocal{c: newSSCore(capacity)}
}

// Observe credits inc to key. Owner goroutine only.
func (t *SpaceSavingLocal) Observe(key uint64, inc uint64) { t.c.observe(key, inc) }

// Count returns the tracked (over)estimate for key, or 0 when untracked.
func (t *SpaceSavingLocal) Count(key uint64) uint64 { return t.c.count(key) }

// Len returns how many keys are currently tracked.
func (t *SpaceSavingLocal) Len() int { return len(t.c.slots) }

// Entries returns the live slot slice in arbitrary order — a zero-copy
// view that is invalidated by the next Observe/Decay/Reset. Owner
// goroutine only.
func (t *SpaceSavingLocal) Entries() []Entry { return t.c.slots }

// Decay halves every slot's count and error, dropping zeroed slots.
func (t *SpaceSavingLocal) Decay() { t.c.decay() }

// Reset drops every tracked key.
func (t *SpaceSavingLocal) Reset() { t.c.reset() }
