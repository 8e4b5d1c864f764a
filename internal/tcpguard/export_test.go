package tcpguard

import "floodguard/internal/netpkt"

// ConnState reports the tracked state of a 4-tuple on shard i. Test
// and barrier-time introspection only: must not race the shard
// goroutine's Process calls.
func (g *Guard) ConnState(shard int, src, dst netpkt.IPv4, sport, dport uint16) State {
	if c := g.shards[shard].table.lookup(src, dst, sport, dport); c != nil {
		return c.state
	}
	return StateNone
}
