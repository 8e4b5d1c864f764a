package sketch

import (
	"math/rand"
	"sync"
	"testing"
)

func TestCountMinNeverUnderestimates(t *testing.T) {
	s := NewCountMin(4, 512, 0xF100D)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(300))
		s.Update(k, 1)
		truth[k]++
	}
	for k, want := range truth {
		if got := s.Estimate(k); got < want {
			t.Fatalf("Estimate(%d) = %d, below true count %d", k, got, want)
		}
	}
	if s.Total() != 20000 {
		t.Fatalf("Total = %d, want 20000", s.Total())
	}
}

func TestCountMinHeavyHitterAccuracy(t *testing.T) {
	s := NewCountMin(4, 2048, 42)
	// One elephant among uniform mice.
	rng := rand.New(rand.NewSource(2))
	const elephant = uint64(0xE1E)
	for i := 0; i < 10000; i++ {
		s.Update(elephant, 1)
		s.Update(uint64(rng.Int63()), 1)
	}
	est := s.Estimate(elephant)
	if est < 10000 || est > 10000+10000/10 {
		t.Fatalf("elephant estimate %d not within 10%% over true 10000", est)
	}
}

func TestCountMinDecay(t *testing.T) {
	s := NewCountMin(2, 64, 7)
	s.Update(1, 1000)
	s.Decay()
	if got := s.Estimate(1); got != 500 {
		t.Fatalf("after one decay: Estimate = %d, want 500", got)
	}
	if s.Total() != 500 {
		t.Fatalf("after one decay: Total = %d, want 500", s.Total())
	}
}

// TestCountMinConcurrentUpdateEstimate races the writer side (Update
// and Decay, the attributor's window flush) against the reader side
// (Estimate and Total, the cache's per-packet hint), then checks the
// quiescent sketch: no key's estimate exceeds the total.
func TestCountMinConcurrentUpdateEstimate(t *testing.T) {
	s := NewCountMin(4, 256, 3)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Update(uint64(i%97), 1)
				if i%64 == 63 {
					s.Decay()
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Estimate(uint64(i % 97))
			s.Total()
		}
		close(stop)
	}()
	wg.Wait()
	for k := uint64(0); k < 97; k++ {
		if est := s.Estimate(k); est > s.Total() {
			t.Fatalf("Estimate(%d) = %d exceeds Total %d", k, est, s.Total())
		}
	}
}

func TestSpaceSavingGuarantee(t *testing.T) {
	ss := NewSpaceSaving(8)
	// Two heavies over a churn of uniques: both must be tracked.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		ss.Observe(0xAAA, 1)
		ss.Observe(0xBBB, 1)
		ss.Observe(uint64(rng.Int63()), 1)
	}
	top := ss.Top(nil)
	if len(top) == 0 || top[0].Count < 5000 {
		t.Fatalf("top-1 count %v, want >= 5000", top)
	}
	found := map[uint64]bool{}
	for _, e := range top[:2] {
		found[e.Key] = true
	}
	if !found[0xAAA] || !found[0xBBB] {
		t.Fatalf("heavies missing from top-2: %v", top[:2])
	}
	// The guaranteed-count lower bound (Count - Err) must dominate the
	// churn keys' possible true counts.
	if top[0].Count-top[0].Err < 4000 {
		t.Fatalf("lower bound %d too weak", top[0].Count-top[0].Err)
	}
}

func TestSpaceSavingDecayDropsCold(t *testing.T) {
	ss := NewSpaceSaving(4)
	ss.Observe(1, 100)
	ss.Observe(2, 1)
	ss.Decay() // 2 -> 0, dropped
	if ss.Count(2) != 0 {
		t.Fatalf("cold key survived decay with count %d", ss.Count(2))
	}
	if ss.Count(1) != 50 {
		t.Fatalf("hot key decayed to %d, want 50", ss.Count(1))
	}
	if ss.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ss.Len())
	}
	// Index must still be consistent after compaction.
	ss.Observe(1, 1)
	if ss.Count(1) != 51 {
		t.Fatalf("post-decay Observe landed wrong: %d", ss.Count(1))
	}
}

func TestSpaceSavingConcurrentObserveTop(t *testing.T) {
	ss := NewSpaceSaving(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ss.Observe(uint64(i%31), 1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		var buf []Entry
		for i := 0; i < 200; i++ {
			buf = ss.Top(buf[:0])
			if i%50 == 0 {
				ss.Decay()
			}
		}
		close(stop)
	}()
	wg.Wait()
}
