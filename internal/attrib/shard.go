// Shard-local attribution observation for the run-to-completion engine.
// Each engine shard owns a ShardObserver and feeds it from its packet
// loop without taking any lock or atomic; at window boundaries the shard
// folds the accumulated deltas into the shared Attributor in one bounded
// merge. The shard-local count-min sketch is built with the Attributor's
// own geometry and seed, so the merge is the exact cell-wise sum the
// CountMin merge bound requires.
package attrib

import (
	"slices"

	"floodguard/internal/netpkt"
	"floodguard/internal/sketch"
)

// ShardObserver is a single-goroutine accumulator of attribution
// observations. Observe is lock-free and allocation-free on the steady
// state; Flush merges into the parent Attributor and resets the locals.
type ShardObserver struct {
	a     *Attributor
	ports []portCount           // samples per port since the last Flush
	last  int                   // the ports entry Observe counted last
	srcs  *sketch.CountMinLocal // same geometry+seed as a.srcs
	tcp   *tcpDeltas            // handshake verdicts since the last Flush
}

// NewShardObserver builds a shard-local observer bound to a.
func (a *Attributor) NewShardObserver() *ShardObserver {
	return &ShardObserver{
		a:    a,
		srcs: sketch.NewCountMinLocal(sketchRows, sketchCols, a.cfg.Seed),
		tcp:  newTCPDeltas(a.cfg.TCPMaxSources, a.cfg.Seed),
	}
}

// Observe feeds one sampled packet_in header. Owner goroutine only; it
// touches only shard-local plain memory — no lock, no atomic, no
// allocation once the port is known. Ports are few and a flood comes in
// on one, so the port's count is found by checking the last one counted,
// then a scan.
func (o *ShardObserver) Observe(origin uint64, inPort uint16, pkt *netpkt.Packet) {
	k := portKey(origin, inPort)
	if o.last >= len(o.ports) || o.ports[o.last].key != k {
		o.last = slices.IndexFunc(o.ports, func(c portCount) bool { return c.key == k })
		if o.last < 0 {
			o.last = len(o.ports)
			o.ports = append(o.ports, portCount{key: k})
		}
	}
	o.ports[o.last].n++
	if pkt != nil && pkt.IsIP() {
		o.srcs.Update(uint64(pkt.NwSrc), 1)
	}
}

// portCount is one port's sample count since the last Flush.
type portCount struct{ key, n uint64 }

// Flush folds the buffered observations into the parent Attributor —
// the window-boundary merge. Port counts join the open detection window
// under the Attributor's lock; the source sketch is absorbed cell-wise.
// The TCP delta table is handed over whole, in O(1), for the next Roll
// to fold in, and a recycled empty one takes its place. The locals are
// reset, keeping their buckets for the next window.
func (o *ShardObserver) Flush() {
	a := o.a
	if len(o.ports) > 0 {
		a.mu.Lock()
		for _, c := range o.ports {
			a.stateLocked(c.key).count += c.n
		}
		a.mu.Unlock()
		o.ports = o.ports[:0]
	}
	if o.srcs.Total() > 0 {
		// Same rows/cols/seed by construction — AbsorbLocal cannot fail.
		_ = a.srcs.AbsorbLocal(o.srcs)
	}
	if len(o.tcp.slots) > 0 {
		o.tcp = a.handOverTCP(o.tcp)
	}
}
