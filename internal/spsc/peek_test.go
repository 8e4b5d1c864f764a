package spsc

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestPeekReleaseMatchesModel plays random pushes, Peeks and partial
// Releases against a plain FIFO at every capacity from 2 to 8, far past
// many wraparounds. A Peek returns the oldest unreleased elements, never
// more than asked, never past the end of the buffer, and short only
// there or when the ring runs out; slots held by a Peek stay full to the
// producer until they are released.
func TestPeekReleaseMatchesModel(t *testing.T) {
	for c := 2; c <= 8; c++ {
		r := New[int](c)
		capacity := r.Cap()
		rng := rand.New(rand.NewSource(int64(c)))
		var model []int // unreleased elements, oldest first
		next, head := 0, 0
		for op := 0; op < 20000; op++ {
			switch rng.Intn(3) {
			case 0:
				ok := r.Push(next)
				if want := len(model) < capacity; ok != want {
					t.Fatalf("cap %d op %d: Push accepted=%v with %d of %d held", c, op, ok, len(model), capacity)
				}
				if ok {
					model = append(model, next)
					next++
				}
			default:
				max := 1 + rng.Intn(capacity+1)
				got := r.Peek(max)
				want := min(max, len(model), capacity-head%capacity)
				if len(got) != want {
					t.Fatalf("cap %d op %d: Peek(%d) at slot %d with %d ready = %d elements, want %d",
						c, op, max, head%capacity, len(model), len(got), want)
				}
				if cap(got) != len(got) {
					t.Fatalf("cap %d op %d: Peek's slice can grow into slots it does not own", c, op)
				}
				for i, v := range got {
					if v != model[i] {
						t.Fatalf("cap %d op %d: Peek[%d] = %d, want %d", c, op, i, v, model[i])
					}
				}
				n := rng.Intn(len(got) + 1)
				r.Release(n)
				model = model[n:]
				head += n
			}
			if r.Len() != len(model) {
				t.Fatalf("cap %d op %d: Len = %d, want %d", c, op, r.Len(), len(model))
			}
		}
		if next < 1000 {
			t.Fatalf("cap %d: only %d elements went through", c, next)
		}
	}
}

// TestPeekReleaseLockstep runs a producer against an in-place consumer on
// a four-slot ring: every element arrives once, in order, and the
// consumer may overwrite the slots it holds (which it does, as the
// shard's in-place reads may) without the producer ever seeing it. Under
// -race, a Peek that exposed an unpublished slot, or a producer that
// reused a held one, is a reported race.
func TestPeekReleaseLockstep(t *testing.T) {
	const n = 200000
	r := New[int](4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if r.Push(i) {
				i++
			} else {
				runtime.Gosched() // at GOMAXPROCS 1 the consumer needs the P
			}
		}
		r.Close()
	}()
	want := 0
	for want < n {
		got := r.Peek(3)
		if len(got) == 0 {
			r.Wait()
			continue
		}
		for i := range got {
			if got[i] != want {
				t.Fatalf("element %d read as %d", want, got[i])
			}
			got[i] = -1 // the consumer's to write until Release
			want++
		}
		r.Release(len(got))
	}
	wg.Wait()
	if got := r.Peek(4); len(got) != 0 {
		t.Fatalf("%d elements after the last one", len(got))
	}
}
