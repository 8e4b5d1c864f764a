package sketch

import (
	"math/rand"
	"slices"
	"testing"
)

// linearSS is the stream-summary as it was before the victim heap: the
// eviction scans every slot for the first minimum. It is the reference
// the heap must agree with slot for slot, because the slot order feeds
// seeded CSVs and journal dumps downstream.
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
// with one seeded stream of observes, decays, resets and absorbs. The key
// mix keeps the summaries full and ties in Count frequent (fresh keys at
// inc 1, a few tracked heavy hitters, zero and large increments).
func TestSpaceSavingMatchesLinearScan(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		for seed := int64(1); seed <= 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			shared, local := NewSpaceSaving(capacity), NewSpaceSavingLocal(capacity)
			refShared := &linearSS{cap: capacity, idx: map[uint64]int{}}
			refLocal := &linearSS{cap: capacity, idx: map[uint64]int{}}
			key := func() uint64 {
				switch r.Intn(4) {
				case 0:
					return uint64(r.Intn(capacity + 1)) // tracked heavy hitters
				case 1:
					return uint64(r.Intn(4 * capacity)) // a churning middle
				default:
					return r.Uint64() // fresh: evicts when full
				}
			}
			inc := func() uint64 {
				switch r.Intn(8) {
				case 0:
					return 0
				case 1:
					return uint64(r.Intn(1000))
				default:
					return 1
				}
			}
			for op := 0; op < 20000; op++ {
				switch c := r.Intn(1000); {
				case c < 600:
					k, n := key(), inc()
					local.Observe(k, n)
					refLocal.observe(k, n)
				case c < 960:
					k, n := key(), inc()
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
					t.Fatalf("cap %d seed %d op %d: local slots diverged\n got %v\nwant %v",
						capacity, seed, op, local.c.slots, refLocal.slots)
				}
				if !slices.Equal(shared.c.slots, refShared.slots) {
					t.Fatalf("cap %d seed %d op %d: shared slots diverged\n got %v\nwant %v",
						capacity, seed, op, shared.c.slots, refShared.slots)
				}
			}
		}
	}
}
