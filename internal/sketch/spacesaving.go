package sketch

import (
	"cmp"
	"math/bits"
	"slices"
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
// N/capacity is guaranteed to be present. observe is O(1) for a tracked
// unit increment and for an eviction, whose victim search reads at most
// ceil(capacity/64) bitset words; an increment of n walks forward over
// at most capacity buckets.
//
// The eviction victim is exactly the lowest-indexed slot among those with
// the minimum Count, and slots keeps its order: every seeded output
// downstream depends on both. The victim comes from Metwally's bucket
// list: slots of equal Count share a bucket, the buckets are linked in
// ascending Count, and each keeps its members as a bitset over slot
// indices, so the lowest set bit of the first bucket is the victim. A
// unit increment moves its slot to the next bucket, or recounts its own
// bucket in place when the slot was alone there. The buckets come from a
// preallocated pool of capacity nodes plus the list's sentinel, so
// nothing allocates. The list is maintained only while the summary is
// full (the only time a victim is needed): decay and reset drop it, and
// the next eviction rebuilds it from the slots.
type ssCore struct {
	cap   int
	slots []Entry
	idx   map[uint64]int // key -> slot index

	listed  bool       // the bucket list below reflects slots
	words   int        // bitset words per bucket: ceil(cap/64)
	buckets []ssBucket // pool; buckets[cap] is the list's sentinel
	members []uint64   // bucket b's slots are members[b*words:(b+1)*words]
	of      []int32    // slot index -> its bucket
	free    int32      // free-bucket list, linked through next; -1 when empty
	order   []int32    // rebuild scratch: slot indices sorted by Count
}

// ssBucket is one node of the Count-ordered bucket list.
type ssBucket struct {
	count      uint64
	prev, next int32
	n          int32 // member slots
}

func newSSCore(capacity int) ssCore {
	if capacity <= 0 {
		capacity = 64
	}
	words := (capacity + 63) / 64
	return ssCore{
		cap:     capacity,
		slots:   make([]Entry, 0, capacity),
		idx:     make(map[uint64]int, capacity*2),
		words:   words,
		buckets: make([]ssBucket, capacity+1),
		members: make([]uint64, (capacity+1)*words),
		of:      make([]int32, capacity),
		order:   make([]int32, capacity),
	}
}

func (t *ssCore) observe(key uint64, inc uint64) {
	if i, ok := t.idx[key]; ok {
		t.slots[i].Count += inc
		if t.listed {
			t.raise(int32(i), inc)
		}
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
	t.raise(int32(min), inc)
}

// victim returns the lowest index among the minimum-Count slots: the
// lowest member of the first bucket. The summary must be full.
func (t *ssCore) victim() int {
	if !t.listed {
		t.rebuild()
	}
	b := t.buckets[t.cap].next
	for w, m := range t.members[int(b)*t.words : int(b+1)*t.words] {
		if m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	panic("sketch: empty first bucket")
}

// raise moves slot i, whose Count just grew by inc, to the bucket of its
// new Count.
func (t *ssCore) raise(i int32, inc uint64) {
	if inc == 0 {
		return
	}
	c, b, end := t.slots[i].Count, t.of[i], int32(t.cap)
	// at is the last bucket below c; next is the first at or above it.
	at, next := b, t.buckets[b].next
	for next != end && t.buckets[next].count < c {
		at, next = next, t.buckets[next].next
	}
	found := next != end && t.buckets[next].count == c
	if !found && at == b && t.buckets[b].n == 1 {
		t.buckets[b].count = c // alone, and no bucket in between
		return
	}
	t.leave(i, b) // frees b only if at != b or found: at stays linked
	if !found {
		next = t.insertAfter(at, c)
	}
	t.join(i, next)
}

// join adds slot i to bucket b.
func (t *ssCore) join(i, b int32) {
	t.members[int(b)*t.words+int(i)>>6] |= 1 << (uint(i) & 63)
	t.buckets[b].n++
	t.of[i] = b
}

// leave removes slot i from bucket b, unlinking and freeing b once empty.
func (t *ssCore) leave(i, b int32) {
	t.members[int(b)*t.words+int(i)>>6] &^= 1 << (uint(i) & 63)
	if t.buckets[b].n--; t.buckets[b].n > 0 {
		return
	}
	p, n := t.buckets[b].prev, t.buckets[b].next
	t.buckets[p].next, t.buckets[n].prev = n, p
	t.buckets[b].next, t.free = t.free, b
}

// insertAfter takes a bucket of count c from the free list and links it
// after bucket at (the sentinel for the head).
func (t *ssCore) insertAfter(at int32, c uint64) int32 {
	b := t.free
	t.free = t.buckets[b].next
	n := t.buckets[at].next
	t.buckets[b] = ssBucket{count: c, prev: at, next: n}
	t.buckets[at].next, t.buckets[n].prev = b, b
	return b
}

// rebuild lists the (full) slot array from scratch: after decay or
// reset, once per window.
func (t *ssCore) rebuild() {
	s := int32(t.cap)
	t.buckets[s] = ssBucket{prev: s, next: s}
	t.free = -1
	for b := s - 1; b >= 0; b-- {
		t.buckets[b].next, t.free = t.free, b
	}
	clear(t.members)
	for i := range t.order {
		t.order[i] = int32(i)
	}
	// Only the Count order matters: a bucket's bitset orders its members.
	slices.SortFunc(t.order, func(a, b int32) int {
		return cmp.Compare(t.slots[a].Count, t.slots[b].Count)
	})
	for _, i := range t.order {
		tail := t.buckets[s].prev
		if tail == s || t.buckets[tail].count != t.slots[i].Count {
			tail = t.insertAfter(tail, t.slots[i].Count)
		}
		t.join(i, tail)
	}
	t.listed = true
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
	t.listed = false // counts shrank and indices moved
}

func (t *ssCore) reset() {
	t.slots = t.slots[:0]
	t.listed = false
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
