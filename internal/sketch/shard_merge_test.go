package sketch

import (
	"math/rand"
	"testing"
)

// TestShardedMergeInvariance is the engine's correctness contract for
// per-shard sketches: partitioning a stream across any number of
// shard-local count-min sketches (same geometry and seed) and merging
// them must reproduce the single-sketch cells exactly — identical
// Estimate for every key and identical Total — regardless of how the
// stream was partitioned.
func TestShardedMergeInvariance(t *testing.T) {
	const (
		rows = 4
		cols = 256
		seed = 0xF100D6
		n    = 5000
	)
	for _, shards := range []int{1, 2, 3, 4, 7, 16} {
		rng := rand.New(rand.NewSource(99))
		single := NewCountMin(rows, cols, seed)
		parts := make([]*CountMin, shards)
		for i := range parts {
			parts[i] = NewCountMin(rows, cols, seed)
		}
		keys := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			// Zipf-ish mix: one heavy key over a long benign tail.
			k := uint64(42)
			if rng.Intn(4) != 0 {
				k = uint64(rng.Intn(512)) + 1000
			}
			keys = append(keys, k)
			single.Update(k, 1)
			// Round-robin partition: the invariant must hold for any
			// split, not just the engine's by-port one.
			parts[i%shards].Update(k, 1)
		}

		merged := NewCountMin(rows, cols, seed)
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatalf("shards=%d: merge: %v", shards, err)
			}
		}
		// The same split through unlocked shard-local sketches, absorbed in
		// two halves of the stream (a local is reused after AbsorbLocal).
		absorbed := NewCountMin(rows, cols, seed)
		locals := make([]*CountMinLocal, shards)
		for i := range locals {
			locals[i] = NewCountMinLocal(rows, cols, seed)
		}
		for half := 0; half < 2; half++ {
			for i := half * n / 2; i < (half+1)*n/2; i++ {
				locals[i%shards].Update(keys[i], 1)
			}
			for _, l := range locals {
				if err := absorbed.AbsorbLocal(l); err != nil {
					t.Fatalf("shards=%d: absorb: %v", shards, err)
				}
				if l.Total() != 0 {
					t.Fatalf("shards=%d: AbsorbLocal left total %d in the local", shards, l.Total())
				}
			}
		}
		for name, got := range map[string]*CountMin{"merged": merged, "absorbed": absorbed} {
			if got.Total() != single.Total() {
				t.Fatalf("shards=%d %s: Total %d != %d", shards, name, got.Total(), single.Total())
			}
			for _, k := range keys {
				if g, want := got.Estimate(k), single.Estimate(k); g != want {
					t.Fatalf("shards=%d %s: Estimate(%d) = %d, want %d", shards, name, k, g, want)
				}
			}
		}
	}
	if err := NewCountMin(4, 256, 1).AbsorbLocal(NewCountMinLocal(4, 256, 2)); err == nil {
		t.Fatal("AbsorbLocal accepted a sketch with different seeds")
	}
}

// TestShardedHeavyHitterAbsorb pins the space-saving half of the
// window-boundary merge: with capacity above the distinct-key count the
// summary is exact, so absorbing shard-local summaries into a shared one
// must yield true counts and rank the heavy key first.
func TestShardedHeavyHitterAbsorb(t *testing.T) {
	const shards = 4
	rng := rand.New(rand.NewSource(7))
	truth := make(map[uint64]uint64)
	locals := make([]*SpaceSavingLocal, shards)
	for i := range locals {
		locals[i] = NewSpaceSavingLocal(1024)
	}
	for i := 0; i < 4000; i++ {
		k := uint64(42)
		if rng.Intn(3) != 0 {
			k = uint64(rng.Intn(100)) + 1000
		}
		truth[k]++
		locals[i%shards].Observe(k, 1)
	}

	shared := NewSpaceSaving(1024)
	for _, l := range locals {
		shared.AbsorbLocal(l)
		if l.Len() != 0 {
			t.Fatal("AbsorbLocal must reset the local summary")
		}
	}
	top := shared.Top(nil)
	if len(top) != len(truth) {
		t.Fatalf("tracked %d keys, want %d", len(top), len(truth))
	}
	if top[0].Key != 42 {
		t.Fatalf("heavy key not first: %+v", top[0])
	}
	for _, e := range top {
		if e.Count != truth[e.Key] || e.Err != 0 {
			t.Fatalf("key %d: count %d err %d, want %d err 0", e.Key, e.Count, e.Err, truth[e.Key])
		}
	}
}
