// Package sketch provides the streaming traffic-analysis substrate for
// attack attribution: a count-min sketch for per-source frequency
// estimates over sampled packet_in headers, the estimate the source
// verdict reads. It is sized in constants and allocation-free on its hot
// paths (Update/Estimate). Each engine shard keeps a CountMinLocal, and
// the window barrier folds the shards into one shared sketch with
// AbsorbLocal.
//
// The package also holds a space-saving summary (spacesaving.go) that no
// stack calls any more: no verdict ever read it, so attribution stopped
// feeding it. It stays, with its tests, only until those tests are
// retired (ROADMAP item 10).
//
// Counters are updated and read with atomics, so a telemetry scrape or
// an estimate taken from another goroutine never blocks the packet path
// and never tears a 64-bit read. The *Local variants are the exception:
// one goroutine owns each, so they use plain memory. Periodic Decay
// halves every counter, giving the estimates an exponential horizon so a
// source that stops attacking ages out instead of staying blamed forever.
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

// Update adds delta to key's counters. Allocation-free and safe to call
// concurrently with Estimate, Total, and a telemetry scrape.
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

// Compatible reports whether two sketches share dimensions and seeds, so
// their cells line up for AbsorbLocal.
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

// Update adds delta to key's counters and returns key's estimate after
// the add. Owner goroutine only.
func (s *CountMinLocal) Update(key uint64, delta uint64) uint64 {
	c := &s.cm
	mask := uint64(c.cols - 1)
	est := uint64(math.MaxUint64)
	for r := 0; r < c.rows; r++ {
		i := r*c.cols + int(splitmix64(key^c.seeds[r])&mask)
		c.counts[i] += delta
		est = min(est, c.counts[i])
	}
	c.total += delta
	return est
}

// Total returns the sum of all deltas since the last AbsorbLocal.
func (s *CountMinLocal) Total() uint64 { return s.cm.total }

// MeanCell returns the mean counter of a row, Total/cols: what a key
// that was never added reads, on average, in each row.
func (s *CountMinLocal) MeanCell() uint64 { return s.cm.total / uint64(s.cm.cols) }

// Reset zeroes every counter and the total. Owner goroutine only.
func (s *CountMinLocal) Reset() {
	if s.cm.total != 0 {
		clear(s.cm.counts)
		s.cm.total = 0
	}
}
