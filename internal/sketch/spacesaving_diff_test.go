package sketch

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// linearSS is the reference stream-summary: the eviction scans every
// slot for the first minimum. The bucket list must agree with it slot
// for slot, because the slot order feeds seeded CSVs and journal dumps
// downstream.
type linearSS struct {
	cap   int
	slots []Entry
	idx   map[uint64]int
}

func (t *linearSS) observe(key, inc uint64) {
	if i, ok := t.idx[key]; ok {
		t.slots[i].Count += inc
		return
	}
	if len(t.slots) < t.cap {
		t.idx[key] = len(t.slots)
		t.slots = append(t.slots, Entry{Key: key, Count: inc})
		return
	}
	min := 0
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].Count < t.slots[min].Count {
			min = i
		}
	}
	old := t.slots[min]
	delete(t.idx, old.Key)
	t.idx[key] = min
	t.slots[min] = Entry{Key: key, Count: old.Count + inc, Err: old.Count}
}

func (t *linearSS) decay() {
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
}

func (t *linearSS) reset() {
	t.slots = t.slots[:0]
	clear(t.idx)
}

// TestSpaceSavingMatchesLinearScan drives the shared summary, a shard
// local feeding it through AbsorbLocal, and their linear-scan references
// with one seeded stream of observes, decays, resets and absorbs, and
// checks the bucket list's invariants after every op. Capacities cross
// the bitset's word boundaries (63, 64, 65, 128, 1024). Two key mixes
// keep the summaries full and ties in Count frequent:
//   - mixed: fresh keys at inc 1, a few tracked heavy hitters and a
//     churning middle;
//   - heavy: capacity-1 heavy hitters taking increments that jump over
//     other buckets' counts, with fresh keys churning the one slot left.
//
// Both mixes draw zero increments, which must leave a victim in the
// minimum bucket, and large ones.
func TestSpaceSavingMatchesLinearScan(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 63, 64, 65, 128, 1024} {
		for _, heavy := range []bool{false, true} {
			// Every op costs O(capacity) in the reference and the checks,
			// so only the capacities no caller uses run shorter.
			seeds, ops := int64(8), 20000
			switch capacity {
			case 1024:
				seeds, ops = 1, 8000
			case 63, 65, 128:
				seeds, ops = 3, 10000
			}
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("cap%d/heavy=%t/seed%d", capacity, heavy, seed), func(t *testing.T) {
					diffLinearScan(t, capacity, heavy, seed, ops)
				})
			}
		}
	}
}

func diffLinearScan(t *testing.T, capacity int, heavy bool, seed int64, ops int) {
	r := rand.New(rand.NewSource(seed))
	shared, local := NewSpaceSaving(capacity), NewSpaceSavingLocal(capacity)
	refShared := &linearSS{cap: capacity, idx: map[uint64]int{}}
	refLocal := &linearSS{cap: capacity, idx: map[uint64]int{}}
	key := func() (k, n uint64) {
		if heavy {
			if r.Intn(2) == 0 && capacity > 1 {
				return uint64(r.Intn(capacity - 1)), 2 + uint64(r.Intn(4*capacity))
			}
			k = r.Uint64() // fresh: evicts the churn slot
		} else {
			switch r.Intn(4) {
			case 0:
				k = uint64(r.Intn(capacity + 1)) // tracked heavy hitters
			case 1:
				k = uint64(r.Intn(4 * capacity)) // a churning middle
			default:
				k = r.Uint64() // fresh: evicts when full
			}
		}
		switch r.Intn(8) {
		case 0:
			return k, 0
		case 1:
			return k, uint64(r.Intn(1000))
		case 2:
			return k, 2 + uint64(r.Intn(8)) // lands on or between nearby buckets
		default:
			return k, 1
		}
	}
	// Barriers come rarer as capacity grows, so a large summary still
	// fills (and evicts) between resets.
	fill := max(1, capacity/64)
	listed := 0
	for op := 0; op < ops; op++ {
		c := r.Intn(1000)
		if c >= 960 && r.Intn(fill) != 0 {
			c = r.Intn(960)
		}
		switch {
		case c < 600:
			k, n := key()
			local.Observe(k, n)
			refLocal.observe(k, n)
		case c < 960:
			k, n := key()
			shared.Observe(k, n)
			refShared.observe(k, n)
		case c < 980:
			shared.AbsorbLocal(local)
			for _, e := range refLocal.slots {
				refShared.observe(e.Key, e.Count)
			}
			refLocal.reset()
		case c < 990:
			shared.Decay()
			refShared.decay()
		case c < 996:
			local.Decay()
			refLocal.decay()
		case c < 998:
			shared.Reset()
			refShared.reset()
		default:
			local.Reset()
			refLocal.reset()
		}
		if !slices.Equal(local.c.slots, refLocal.slots) {
			t.Fatalf("op %d: local slots diverged\n got %v\nwant %v", op, local.c.slots, refLocal.slots)
		}
		if !slices.Equal(shared.c.slots, refShared.slots) {
			t.Fatalf("op %d: shared slots diverged\n got %v\nwant %v", op, shared.c.slots, refShared.slots)
		}
		if err := local.c.checkBuckets(); err != nil {
			t.Fatalf("op %d: local: %v", op, err)
		}
		if err := shared.c.checkBuckets(); err != nil {
			t.Fatalf("op %d: shared: %v", op, err)
		}
		if local.c.listed || shared.c.listed {
			listed++
		}
	}
	if listed < ops/2 {
		t.Errorf("bucket list maintained over only %d of %d ops: the mix no longer fills the summaries", listed, ops)
	}
}

// checkBuckets verifies the bucket list against the slots while it is
// maintained: bucket counts strictly ascending from the sentinel, links
// consistent both ways, each bucket's member count equal to its bitset's
// popcount, every slot in the bucket of its Count, and every other pool
// node on the free list with an empty bitset.
func (t *ssCore) checkBuckets() error {
	if !t.listed {
		return nil
	}
	if len(t.slots) != t.cap {
		return fmt.Errorf("listed with %d of %d slots", len(t.slots), t.cap)
	}
	end := int32(t.cap)
	onList := make([]bool, t.cap)
	members, listed := 0, 0
	for p, b := end, t.buckets[end].next; b != end; p, b = b, t.buckets[b].next {
		if b < 0 || b >= end || onList[b] {
			return fmt.Errorf("bucket %d: bad or repeated link", b)
		}
		onList[b] = true
		bk := t.buckets[b]
		if bk.prev != p {
			return fmt.Errorf("bucket %d: prev %d, want %d", b, bk.prev, p)
		}
		if p != end && t.buckets[p].count >= bk.count {
			return fmt.Errorf("bucket %d: count %d after %d", b, bk.count, t.buckets[p].count)
		}
		pop := 0
		for _, w := range t.members[int(b)*t.words : int(b+1)*t.words] {
			pop += bits.OnesCount64(w)
		}
		if bk.n <= 0 || int(bk.n) != pop {
			return fmt.Errorf("bucket %d: n %d, popcount %d", b, bk.n, pop)
		}
		members += pop
		listed++
	}
	if members != t.cap {
		return fmt.Errorf("%d members over %d slots", members, t.cap)
	}
	for i, e := range t.slots {
		b := t.of[i]
		if b < 0 || b >= end || !onList[b] {
			return fmt.Errorf("slot %d: bucket %d not listed", i, b)
		}
		if t.buckets[b].count != e.Count {
			return fmt.Errorf("slot %d: count %d in bucket of %d", i, e.Count, t.buckets[b].count)
		}
		if t.members[int(b)*t.words+i/64]&(1<<(i%64)) == 0 {
			return fmt.Errorf("slot %d: missing from bucket %d", i, b)
		}
	}
	free := 0
	for b := t.free; b != -1; b = t.buckets[b].next {
		if b < 0 || b >= end || onList[b] {
			return fmt.Errorf("free bucket %d: listed or out of range", b)
		}
		for _, w := range t.members[int(b)*t.words : int(b+1)*t.words] {
			if w != 0 {
				return fmt.Errorf("free bucket %d: members %x", b, w)
			}
		}
		onList[b] = true
		if free++; free > t.cap {
			return fmt.Errorf("free list cycles")
		}
	}
	if listed+free != t.cap {
		return fmt.Errorf("%d listed + %d free buckets, want %d", listed, free, t.cap)
	}
	return nil
}
