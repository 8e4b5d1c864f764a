// Shard-local attribution observation for the run-to-completion engine.
// Each engine shard owns a ShardObserver and feeds it from its packet
// loop without taking any lock or atomic; at window boundaries the shard
// folds the accumulated deltas into the shared Attributor in one bounded
// merge. The shard-local count-min sketch is built with the Attributor's
// own geometry and seed, so the merge is the exact cell-wise sum the
// CountMin merge bound requires.
package attrib

import (
	"floodguard/internal/netpkt"
	"floodguard/internal/sketch"
)

// ShardObserver is a single-goroutine accumulator of attribution
// observations. Observe is lock-free and allocation-free on the steady
// state; Flush merges into the parent Attributor and resets the locals.
type ShardObserver struct {
	a     *Attributor
	ports map[uint64]uint64     // portKey -> samples since the last Flush
	srcs  *sketch.CountMinLocal // same geometry+seed as a.srcs
	hot   *sketch.SpaceSavingLocal
	tcp   map[uint64]tcpDelta // src -> handshake verdicts since last Flush
}

// NewShardObserver builds a shard-local observer bound to a.
func (a *Attributor) NewShardObserver() *ShardObserver {
	return &ShardObserver{
		a:     a,
		ports: make(map[uint64]uint64, 16),
		srcs:  sketch.NewCountMinLocal(a.cfg.SketchRows, a.cfg.SketchCols, a.cfg.Seed),
		hot:   sketch.NewSpaceSavingLocal(a.cfg.TopK),
		tcp:   make(map[uint64]tcpDelta, 16),
	}
}

// Observe feeds one sampled packet_in header. Owner goroutine only; it
// touches only shard-local plain memory — no lock, no atomic, no
// allocation once the port is known.
func (o *ShardObserver) Observe(origin uint64, inPort uint16, pkt *netpkt.Packet) {
	o.ports[portKey(origin, inPort)]++
	if pkt != nil && pkt.IsIP() {
		src := uint64(pkt.NwSrc)
		o.srcs.Update(src, 1)
		o.hot.Observe(src, 1)
	}
}

// Flush folds the buffered observations into the parent Attributor —
// the window-boundary merge. Port counts join the open detection window
// under the Attributor's lock; the source sketch is absorbed cell-wise;
// the heavy-hitter candidates are re-observed into the shared summary.
// The TCP delta map is handed over whole, in O(1), for the next Roll to
// fold in, and a recycled empty one takes its place. The locals are
// reset, keeping their buckets for the next window.
func (o *ShardObserver) Flush() {
	a := o.a
	if len(o.ports) > 0 {
		a.mu.Lock()
		for k, n := range o.ports {
			a.stateLocked(k).count += n
		}
		a.mu.Unlock()
		clear(o.ports)
	}
	if o.srcs.Total() > 0 {
		// Same rows/cols/seed by construction — AbsorbLocal cannot fail.
		_ = a.srcs.AbsorbLocal(o.srcs)
	}
	if o.hot.Len() > 0 {
		a.hot.AbsorbLocal(o.hot)
	}
	if len(o.tcp) > 0 {
		o.tcp = a.handOverTCP(o.tcp)
	}
}
