package spsc

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	} {
		if got := New[int](c.ask).Cap(); got != c.want {
			t.Errorf("New(%d).Cap() = %d, want %d", c.ask, got, c.want)
		}
	}
}

func TestRingFIFOAndWraparound(t *testing.T) {
	r := New[int](4) // capacity 4: wraps every four elements
	next := 0
	for round := 0; round < 100; round++ {
		// Fill to capacity, refuse one more, drain in order.
		for i := 0; i < 4; i++ {
			if !r.Push(next + i) {
				t.Fatalf("round %d: push %d refused", round, i)
			}
		}
		if r.Push(-1) {
			t.Fatalf("round %d: push into full ring accepted", round)
		}
		if r.Len() != 4 {
			t.Fatalf("round %d: Len = %d, want 4", round, r.Len())
		}
		for i := 0; i < 4; i++ {
			v, ok := r.pop()
			if !ok || v != next {
				t.Fatalf("round %d: pop = %d,%v, want %d,true", round, v, ok, next)
			}
			next++
		}
		if _, ok := r.pop(); ok {
			t.Fatalf("round %d: pop from empty ring succeeded", round)
		}
	}
}

func TestRingBatchBoundaries(t *testing.T) {
	r := New[int](8)
	buf := make([]int, 16)

	// Batch push larger than free space takes only what fits.
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n := r.PushBatch(in); n != 8 {
		t.Fatalf("PushBatch into empty ring of 8 took %d", n)
	}
	if n := r.PushBatch(in); n != 0 {
		t.Fatalf("PushBatch into full ring took %d", n)
	}
	// Partial drain, partial refill across the wrap point.
	if n := r.PopBatch(buf[:5]); n != 5 {
		t.Fatalf("PopBatch(5) = %d", n)
	}
	for i := 0; i < 5; i++ {
		if buf[i] != i {
			t.Fatalf("PopBatch order: buf[%d] = %d", i, buf[i])
		}
	}
	if n := r.PushBatch([]int{10, 11, 12, 13, 14, 15}); n != 5 {
		t.Fatalf("PushBatch after partial drain took %d, want 5", n)
	}
	// Remaining contents must be 5,6,7,10,11,12,13,14 in order.
	want := []int{5, 6, 7, 10, 11, 12, 13, 14}
	if n := r.PopBatch(buf); n != len(want) {
		t.Fatalf("PopBatch drained %d, want %d", n, len(want))
	}
	for i, w := range want {
		if buf[i] != w {
			t.Fatalf("wrap order: buf[%d] = %d, want %d", i, buf[i], w)
		}
	}

	// Zero-length destination is a no-op, not a stall.
	r.Push(1)
	if n := r.PopBatch(buf[:0]); n != 0 {
		t.Fatalf("PopBatch(empty dst) = %d", n)
	}
	if v, ok := r.pop(); !ok || v != 1 {
		t.Fatalf("element lost after zero-length PopBatch")
	}
}

// TestRingSoak transfers a long random-batch-size stream through the
// ring under -race: every value must arrive exactly once, in order,
// with the consumer exercising the park/wake path via PopBatchWait.
func TestRingSoak(t *testing.T) {
	const total = 200_000
	r := New[uint64](256)
	rng := rand.New(rand.NewSource(0xF100D))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]uint64, 64)
		next := uint64(0)
		for next < total {
			n := rng.Intn(len(batch)) + 1
			for i := 0; i < n && next+uint64(i) < total; i++ {
				batch[i] = next + uint64(i)
			}
			if m := uint64(n); next+m > total {
				n = int(total - next)
			}
			pushed := 0
			for pushed < n {
				k := r.PushBatch(batch[pushed:n])
				if k == 0 {
					runtime.Gosched()
					continue
				}
				pushed += k
			}
			next += uint64(n)
			if n%7 == 0 {
				// Let the consumer drain fully so the park path runs.
				time.Sleep(time.Millisecond)
			}
		}
		r.Close()
	}()

	dst := make([]uint64, 48)
	var got uint64
	for {
		n := r.PopBatchWait(dst)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if dst[i] != got {
				t.Errorf("out of order: got %d, want %d", dst[i], got)
				r.Close()
				wg.Wait()
				return
			}
			got++
		}
	}
	wg.Wait()
	if got != total {
		t.Fatalf("consumed %d values, want %d", got, total)
	}
}

// TestRingWrapAtFullAndEmpty walks a small ring many times around its
// index space while holding it at each edge in turn. Each side works
// from a private copy of the other's index and re-reads the shared one
// only when the copy cannot satisfy the call, so the edges are where a
// stale copy would show: a push refused although a slot was freed, a pop
// that misses a published element, an element overwritten before it was
// popped.
func TestRingWrapAtFullAndEmpty(t *testing.T) {
	r := New[int](4)
	next, want := 0, 0
	push := func() bool {
		if !r.Push(next) {
			return false
		}
		next++
		return true
	}
	pop := func() {
		t.Helper()
		v, ok := r.pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d, %v; want %d", v, ok, want)
		}
		want++
	}

	// At empty: one in, one out, three times round; the ring never holds
	// more than one element and every pop starts from a stale tail.
	for i := 0; i < 12; i++ {
		if _, ok := r.pop(); ok {
			t.Fatalf("step %d: pop from an empty ring succeeded", i)
		}
		if n := r.PopBatch(make([]int, 3)); n != 0 {
			t.Fatalf("step %d: PopBatch on an empty ring = %d", i, n)
		}
		if !push() {
			t.Fatalf("step %d: push into an empty ring refused", i)
		}
		pop()
	}

	// At full: fill, then one out, one in; every push starts from a stale
	// head and the slot it takes is the one just freed.
	for push() {
	}
	if r.Len() != r.Cap() {
		t.Fatalf("ring holds %d of %d after filling", r.Len(), r.Cap())
	}
	for i := 0; i < 12; i++ {
		if push() {
			t.Fatalf("step %d: push into a full ring succeeded", i)
		}
		if n := r.PushBatch([]int{-1, -2}); n != 0 {
			t.Fatalf("step %d: PushBatch into a full ring took %d", i, n)
		}
		pop()
		if !push() {
			t.Fatalf("step %d: push refused with one slot free", i)
		}
	}

	// Batches across both edges: drain everything, then refill past
	// capacity in one call, mid-wrap.
	buf := make([]int, 8)
	if n := r.PopBatch(buf); n != r.Cap() {
		t.Fatalf("PopBatch drained %d of a full ring of %d", n, r.Cap())
	}
	for _, v := range buf[:r.Cap()] {
		if v != want {
			t.Fatalf("drain order: got %d, want %d", v, want)
		}
		want++
	}
	if n := r.PushBatch([]int{next, next + 1, next + 2, next + 3, next + 4, next + 5}); n != r.Cap() {
		t.Fatalf("PushBatch of 6 into an empty ring of %d took %d", r.Cap(), n)
	}
	next += r.Cap()
	for want < next {
		pop()
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop from a drained ring succeeded")
	}
}

// TestRingLockstep runs producer and consumer flat out through a
// two-slot ring, so that nearly every push finds it full or every pop
// finds it empty, across a hundred thousand wraps.
func TestRingLockstep(t *testing.T) {
	const total = 200_000
	r := New[uint64](2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := uint64(0); v < total; v++ {
			for !r.Push(v) {
				runtime.Gosched()
			}
		}
	}()
	for want := uint64(0); want < total; {
		v, ok := r.pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != want {
			t.Errorf("popped %d, want %d", v, want)
			break
		}
		want++
	}
	// Unblock the producer if the loop above bailed out early.
	for {
		select {
		case <-done:
			return
		default:
			r.pop()
			runtime.Gosched()
		}
	}
}

// TestRingParkWake pins the blocking path: a consumer parked on an empty
// ring must wake for the two token sources, a push and Close.
func TestRingParkWake(t *testing.T) {
	r := New[int](8)
	dst := make([]int, 8)

	done := make(chan int, 1)
	go func() {
		n := r.PopBatchWait(dst)
		done <- n
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer park
	r.Push(42)
	select {
	case n := <-done:
		if n != 1 || dst[0] != 42 {
			t.Fatalf("woke with n=%d dst[0]=%d", n, dst[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke for push")
	}

	go func() {
		done <- r.PopBatchWait(dst)
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("close wake returned %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke for close")
	}

	// After close-and-drain, PopBatchWait returns 0 immediately.
	if n := r.PopBatchWait(dst); n != 0 {
		t.Fatalf("PopBatchWait on closed empty ring = %d", n)
	}
}

// TestRingWaitTakesPendingWake pins the token protocol of Wait's spin.
// A producer poke that races a park — the consumer raised its flag,
// re-checked, found the ring ready and never blocked — leaves a token
// behind. The next Wait's spin takes it and returns
// without reaching the park, leaving no token behind, so the Wait after
// that on an idle ring parks for real and returns only for a push.
func TestRingWaitTakesPendingWake(t *testing.T) {
	r := New[int](8)
	leaveToken := func() {
		r.parked.Store(true) // a park raised its flag, then a push won:
		r.Push(1)            // notify pokes the channel
		r.pop()
		if n := len(r.wake); n != 1 {
			t.Fatalf("wake channel holds %d tokens after a poke, want 1", n)
		}
	}
	leaveToken()
	if !r.spin() {
		t.Fatal("spin ignored a pending token: Wait would park")
	}
	if n := len(r.wake); n != 0 {
		t.Fatalf("wake channel holds %d tokens after the spin took one, want 0", n)
	}
	leaveToken()
	r.Wait()
	if n := len(r.wake); n != 0 {
		t.Fatalf("wake channel holds %d tokens after Wait, want 0", n)
	}

	done := make(chan struct{})
	go func() {
		r.Wait()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Wait on an idle ring with no pending token returned")
	case <-time.After(20 * time.Millisecond):
	}
	r.Push(2)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked Wait never woke for a push")
	}
}

// TestRingWaitReturnsOnCloseDuringSpin pins that Close still ends Wait
// when it lands while the consumer spins (or before it starts): Wait
// must return whether the spin sees the flag, takes Close's token, or
// parks just before the token arrives.
func TestRingWaitReturnsOnCloseDuringSpin(t *testing.T) {
	for i := 0; i < 200; i++ {
		r := New[int](8)
		done := make(chan struct{})
		go func() {
			r.Wait()
			close(done)
		}()
		if i%2 == 0 {
			runtime.Gosched() // vary where in the spin the Close lands
		}
		r.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Wait never returned after Close", i)
		}
		if !r.Closed() {
			t.Fatalf("round %d: Closed = false after Close", i)
		}
	}
}

func TestRingCloseDrainsBacklog(t *testing.T) {
	r := New[int](16)
	for i := 0; i < 10; i++ {
		r.Push(i)
	}
	r.Close()
	dst := make([]int, 4)
	var got []int
	for {
		n := r.PopBatchWait(dst)
		if n == 0 {
			break
		}
		got = append(got, dst[:n]...)
	}
	if len(got) != 10 {
		t.Fatalf("drained %d of 10 after Close", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("drain order: got[%d] = %d", i, v)
		}
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := New[uint64](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(uint64(i))
		if _, ok := r.pop(); !ok {
			b.Fatal("pop failed")
		}
	}
}

func BenchmarkRingBatch64(b *testing.B) {
	r := New[uint64](1024)
	in := make([]uint64, 64)
	out := make([]uint64, 64)
	for i := range in {
		in[i] = uint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.PushBatch(in) != 64 {
			b.Fatal("push batch short")
		}
		if r.PopBatch(out) != 64 {
			b.Fatal("pop batch short")
		}
	}
}
