package spsc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestReserveCommitEdges walks a four-slot ring around its index space
// through Reserve/Commit at each edge: reservations count as occupied
// (a full ring refuses one more), the consumer sees nothing until the
// commit and everything after it in order, a commit with nothing
// reserved publishes nothing, and a Push after a Commit lands behind
// the committed slots and a full ring refuses it.
func TestReserveCommitEdges(t *testing.T) {
	r := New[int](4)
	next, want := 0, 0
	reserve := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			p := r.Reserve()
			if p == nil {
				t.Fatalf("Reserve %d of %d refused with room", i, k)
			}
			*p = next
			next++
		}
	}
	drain := func(n int) {
		t.Helper()
		buf := make([]int, 8)
		if got := r.PopBatch(buf); got != n {
			t.Fatalf("PopBatch = %d, want %d", got, n)
		}
		for _, v := range buf[:n] {
			if v != want {
				t.Fatalf("popped %d, want %d", v, want)
			}
			want++
		}
	}

	for round := 0; round < 6; round++ { // 6 × 4 slots: wraps the index space repeatedly
		// Empty: reserved slots stay invisible until Commit.
		r.Commit()
		if r.Len() != 0 {
			t.Fatalf("round %d: an empty Commit published %d", round, r.Len())
		}
		reserve(3)
		if _, ok := r.Pop(); ok || r.Len() != 0 {
			t.Fatalf("round %d: the consumer saw an uncommitted slot", round)
		}
		// Full: the fourth reservation fills the ring and a fifth is
		// refused, though the ring holds no committed slot yet.
		reserve(1)
		if r.Reserve() != nil {
			t.Fatalf("round %d: Reserve on a full ring succeeded", round)
		}
		r.Commit()
		if r.Push(-1) || r.PushBatch([]int{-1}) != 0 {
			t.Fatalf("round %d: a push into a ring full of committed slots succeeded", round)
		}
		drain(4)
		// Mixed: a committed reservation, then a Push, in order.
		reserve(1)
		r.Commit()
		if !r.Push(next) {
			t.Fatalf("round %d: Push refused with room", round)
		}
		next++
		drain(2)
		reserve(2)
		r.Commit()
		drain(2)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from a drained ring succeeded")
	}
}

// TestReserveCommitConcurrent runs a Reserve/Commit producer against a
// PopBatch consumer at capacities 2 through 8, committing after a
// random number of reservations: FIFO order holds and every element
// arrives exactly once (under -race, also that no slot is read before
// the commit that publishes it).
func TestReserveCommitConcurrent(t *testing.T) {
	for c := 2; c <= 8; c++ {
		t.Run(fmt.Sprintf("cap-%d", c), func(t *testing.T) {
			const total = 20_000
			r := New[[2]uint64](c)
			go func() {
				rng := rand.New(rand.NewSource(int64(c)))
				for v := uint64(0); v < total; {
					batch := 1 + rng.Intn(2*c)
					for k := 0; k < batch && v < total; k++ {
						p := r.Reserve()
						if p == nil {
							break // full: commit what is reserved and retry
						}
						*p = [2]uint64{v, ^v}
						v++
					}
					r.Commit()
					runtime.Gosched()
				}
				r.Close()
			}()
			dst := make([][2]uint64, 3)
			var got uint64
			for {
				n := r.PopBatchWait(dst)
				if n == 0 {
					break
				}
				for _, e := range dst[:n] {
					if e[0] != got || e[1] != ^got {
						t.Fatalf("popped %v, want [%d %d]", e, got, ^got)
					}
					got++
				}
			}
			if got != total {
				t.Fatalf("consumed %d of %d", got, total)
			}
		})
	}
}

func BenchmarkRingReserveCommit64(b *testing.B) {
	r := New[uint64](1024)
	out := make([]uint64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 64; k++ {
			*r.Reserve() = uint64(k)
		}
		r.Commit()
		if r.PopBatch(out) != 64 {
			b.Fatal("pop batch short")
		}
	}
}
