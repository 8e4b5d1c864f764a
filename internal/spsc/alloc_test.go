package spsc

import "testing"

// TestRingAllocatesNothing is the absolute witness for the ring's
// 0 allocs/op budget: single push/pop, the 64-wide batch ops, a
// 64-slot Reserve/Commit batch and a 64-wide Peek/Release.
func TestRingAllocatesNothing(t *testing.T) {
	r := New[uint64](1024)
	if a := testing.AllocsPerRun(1000, func() {
		r.Push(7)
		if _, ok := r.pop(); !ok {
			t.Fatal("pop failed")
		}
	}); a != 0 {
		t.Errorf("Push+Pop allocates %v, want 0", a)
	}
	in, out := make([]uint64, 64), make([]uint64, 64)
	if a := testing.AllocsPerRun(1000, func() {
		if r.PushBatch(in) != 64 || r.PopBatch(out) != 64 {
			t.Fatal("short batch")
		}
	}); a != 0 {
		t.Errorf("PushBatch+PopBatch of 64 allocates %v, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 64; k++ {
			*r.Reserve() = 7
		}
		r.Commit()
		if r.PopBatch(out) != 64 {
			t.Fatal("short batch")
		}
	}); a != 0 {
		t.Errorf("64 Reserves+Commit+PopBatch allocate %v, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if r.PushBatch(in) != 64 {
			t.Fatal("short batch")
		}
		for n := 0; n < 64; {
			got := r.Peek(64)
			n += len(got)
			r.Release(len(got))
		}
	}); a != 0 {
		t.Errorf("PushBatch+Peek/Release of 64 allocates %v, want 0", a)
	}
}
