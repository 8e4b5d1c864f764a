// Package sketch provides the streaming traffic-analysis substrate for
// attack attribution: a count-min sketch for per-source frequency
// estimates over sampled packet_in headers, and a space-saving summary
// for the exact heavy-hitter candidates. Both are sized in constants,
// allocation-free on their hot paths (Update/Estimate/Observe), and
// support the multi-switch aggregation pattern — each protected switch
// (or cache box) keeps a local sketch, and a coordinator periodically
// Snapshots and Merges them.
//
// Counters are updated and read with atomics, so a telemetry scrape or a
// snapshot taken from another goroutine never blocks the packet path and
// never tears a 64-bit read. The *Local variants are the exception: one
// goroutine owns each, so they use plain memory and are folded into a
// shared sketch at window boundaries. Periodic Decay halves every counter, giving
// the estimates an exponential horizon so a source that stops attacking
// ages out instead of staying blamed forever.
package sketch

import (
	"fmt"
	"math"
	"sync/atomic"
)

// splitmix64 is the avalanche permutation of the SplitMix64 generator —
// a cheap, statistically solid 64-bit mixer (Steele et al.). Each sketch
// row keys it with its own seed, giving pairwise-independent-enough row
// hashes without carrying hash state around.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 mixes an arbitrary 64-bit value into a well-distributed key.
func Hash64(x uint64) uint64 { return splitmix64(x) }

// CountMin is a count-min sketch: rows × cols of counters, each row
// hashed with its own seed. Estimate returns the minimum over the rows,
// an upper bound on the true count whose error shrinks with cols.
type CountMin struct {
	rows, cols int
	seeds      []uint64
	counts     []uint64 // rows*cols, accessed atomically
	total      uint64   // sum of all Update deltas, accessed atomically
}

// NewCountMin builds a rows × cols sketch with per-row hash seeds
// derived from seed. rows and cols must be positive; cols is rounded up
// to a power of two so the column index is a mask, not a modulo.
func NewCountMin(rows, cols int, seed uint64) *CountMin {
	if rows <= 0 {
		rows = 4
	}
	if cols <= 0 {
		cols = 1024
	}
	// Round cols up to a power of two.
	c := 1
	for c < cols {
		c <<= 1
	}
	s := &CountMin{
		rows:   rows,
		cols:   c,
		seeds:  make([]uint64, rows),
		counts: make([]uint64, rows*c),
	}
	for i := range s.seeds {
		seed = splitmix64(seed)
		s.seeds[i] = seed
	}
	return s
}

// Rows returns the sketch depth.
func (s *CountMin) Rows() int { return s.rows }

// Cols returns the (power-of-two) sketch width.
func (s *CountMin) Cols() int { return s.cols }

// Update adds delta to key's counters. Allocation-free and safe to call
// concurrently with Estimate, Snapshot, and a telemetry scrape.
func (s *CountMin) Update(key uint64, delta uint64) {
	mask := uint64(s.cols - 1)
	for r := 0; r < s.rows; r++ {
		i := r*s.cols + int(splitmix64(key^s.seeds[r])&mask)
		atomic.AddUint64(&s.counts[i], delta)
	}
	atomic.AddUint64(&s.total, delta)
}

// Estimate returns the count-min upper bound on key's total. It never
// underestimates (modulo concurrent Decay) and is allocation-free.
func (s *CountMin) Estimate(key uint64) uint64 {
	mask := uint64(s.cols - 1)
	min := uint64(math.MaxUint64)
	for r := 0; r < s.rows; r++ {
		i := r*s.cols + int(splitmix64(key^s.seeds[r])&mask)
		if v := atomic.LoadUint64(&s.counts[i]); v < min {
			min = v
		}
	}
	return min
}

// Total returns the sum of all deltas observed (the stream length under
// the current decay horizon).
func (s *CountMin) Total() uint64 { return atomic.LoadUint64(&s.total) }

// Decay halves every counter and the total, giving estimates an
// exponential forgetting horizon. Concurrent Updates may land between
// the load and store of a cell and lose at most their own delta — an
// acceptable error source for a structure that is itself approximate.
func (s *CountMin) Decay() {
	for i := range s.counts {
		for {
			v := atomic.LoadUint64(&s.counts[i])
			if atomic.CompareAndSwapUint64(&s.counts[i], v, v/2) {
				break
			}
		}
	}
	for {
		v := atomic.LoadUint64(&s.total)
		if atomic.CompareAndSwapUint64(&s.total, v, v/2) {
			break
		}
	}
}

// Reset zeroes every counter.
func (s *CountMin) Reset() {
	for i := range s.counts {
		atomic.StoreUint64(&s.counts[i], 0)
	}
	atomic.StoreUint64(&s.total, 0)
}

// Compatible reports whether two sketches share dimensions and seeds, so
// their cells line up for Merge.
func (s *CountMin) Compatible(o *CountMin) bool {
	if s.rows != o.rows || s.cols != o.cols {
		return false
	}
	for i := range s.seeds {
		if s.seeds[i] != o.seeds[i] {
			return false
		}
	}
	return true
}

// Snapshot copies the sketch into dst (allocated when nil or
// incompatible) and returns it. The copy is cell-atomic: each counter is
// read with an atomic load, so a snapshot taken mid-Update is internally
// consistent per cell even if cells disagree about in-flight packets.
func (s *CountMin) Snapshot(dst *CountMin) *CountMin {
	if dst == nil || !s.Compatible(dst) {
		dst = &CountMin{
			rows:   s.rows,
			cols:   s.cols,
			seeds:  append([]uint64(nil), s.seeds...),
			counts: make([]uint64, len(s.counts)),
		}
	}
	for i := range s.counts {
		dst.counts[i] = atomic.LoadUint64(&s.counts[i])
	}
	dst.total = atomic.LoadUint64(&s.total)
	return dst
}

// Merge adds other's cells into s — the multi-switch aggregation step.
// The sketches must be Compatible (same dimensions and seeds), or the
// merged estimates would be meaningless.
func (s *CountMin) Merge(other *CountMin) error {
	if !s.Compatible(other) {
		return fmt.Errorf("sketch: merge of incompatible sketches (%dx%d vs %dx%d)",
			s.rows, s.cols, other.rows, other.cols)
	}
	for i := range s.counts {
		atomic.AddUint64(&s.counts[i], atomic.LoadUint64(&other.counts[i]))
	}
	atomic.AddUint64(&s.total, atomic.LoadUint64(&other.total))
	return nil
}

// AbsorbLocal adds a shard-local sketch's cells into s and zeroes the
// local — the window-boundary merge of the run-to-completion engine.
// Only nonzero cells cost an atomic add. The sketches must share
// dimensions and seeds; the caller must be o's owner goroutine.
func (s *CountMin) AbsorbLocal(o *CountMinLocal) error {
	if !s.Compatible(&o.cm) {
		return fmt.Errorf("sketch: absorb of incompatible sketch (%dx%d vs %dx%d)",
			s.rows, s.cols, o.cm.rows, o.cm.cols)
	}
	for i, v := range o.cm.counts {
		if v != 0 {
			atomic.AddUint64(&s.counts[i], v)
			o.cm.counts[i] = 0
		}
	}
	atomic.AddUint64(&s.total, o.cm.total)
	o.cm.total = 0
	return nil
}

// CountMinLocal is the unlocked count-min sketch for a run-to-completion
// shard: exactly one goroutine may touch it, so Update is plain adds.
// Fold it into a shared CountMin of the same geometry and seed at
// window boundaries with AbsorbLocal.
type CountMinLocal struct {
	cm CountMin // counts and total accessed without atomics
}

// NewCountMinLocal builds an unlocked rows × cols sketch; the arguments
// mean what they mean for NewCountMin.
func NewCountMinLocal(rows, cols int, seed uint64) *CountMinLocal {
	return &CountMinLocal{cm: *NewCountMin(rows, cols, seed)}
}

// Update adds delta to key's counters. Owner goroutine only.
func (s *CountMinLocal) Update(key uint64, delta uint64) {
	c := &s.cm
	mask := uint64(c.cols - 1)
	for r := 0; r < c.rows; r++ {
		c.counts[r*c.cols+int(splitmix64(key^c.seeds[r])&mask)] += delta
	}
	c.total += delta
}

// Total returns the sum of all deltas since the last AbsorbLocal.
func (s *CountMinLocal) Total() uint64 { return s.cm.total }
