package tcpguard

import "floodguard/internal/netpkt"

// State is a tracked connection's handshake progress.
type State uint8

const (
	// StateNone marks an empty table slot.
	StateNone State = iota
	// StateEstablished: an ACK carried a valid cookie; the flow is
	// eligible for benign-queue replay.
	StateEstablished
	// StateClosed: FIN or RST observed after establishment; the entry
	// lingers until the next idle sweep, absorbing stragglers.
	StateClosed
)

var stateNames = [...]string{"none", "established", "closed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "?"
}

// conn is one tracked connection. Slots are embedded in the shard's
// fixed backing array; StateNone marks a free slot.
type conn struct {
	src, dst     netpkt.IPv4
	sport, dport uint16
	state        State
	lastWin      uint32 // guard window of the last packet touching this flow
}

// connTable is one shard's open-addressing connection table. It is
// owned by the shard goroutine: lookups and inserts are lock-free and
// allocation-free, eviction happens only at flush barriers. Capacity
// is fixed at construction — the table never grows, and inserts beyond
// capacity are refused. Only a validated cookie inserts, so the
// budget is spent on live peers, never on spoofed SYNs.
type connTable struct {
	slots   []conn
	scratch []conn // sweep survivors, reused across sweeps
	mask    uint32
	seed    uint64
	n       int
	max     int
}

func newConnTable(capacity int, seed uint64) connTable {
	// Slots = next power of two holding capacity at ≤50% load, so the
	// linear probe stays short at the full budget.
	slots := 1
	for slots < capacity*2 {
		slots <<= 1
	}
	return connTable{
		slots:   make([]conn, slots),
		scratch: make([]conn, 0, capacity),
		mask:    uint32(slots - 1),
		seed:    seed,
		max:     capacity,
	}
}

func (t *connTable) hash(src, dst netpkt.IPv4, sport, dport uint16) uint32 {
	h := mix64(t.seed ^ (uint64(src)<<32 | uint64(dst)))
	return uint32(mix64(h ^ (uint64(sport)<<16 | uint64(dport))))
}

// lookup returns the entry for the 4-tuple, or nil. Zero allocations.
func (t *connTable) lookup(src, dst netpkt.IPv4, sport, dport uint16) *conn {
	for i := t.hash(src, dst, sport, dport) & t.mask; ; i = (i + 1) & t.mask {
		c := &t.slots[i]
		if c.state == StateNone {
			return nil
		}
		if c.src == src && c.dst == dst && c.sport == sport && c.dport == dport {
			return c
		}
	}
}

// insert claims a slot for the 4-tuple, returning nil when the shard
// is at its fixed budget. The caller must have established the tuple
// is absent.
func (t *connTable) insert(src, dst netpkt.IPv4, sport, dport uint16) *conn {
	if t.n >= t.max {
		return nil
	}
	for i := t.hash(src, dst, sport, dport) & t.mask; ; i = (i + 1) & t.mask {
		c := &t.slots[i]
		if c.state == StateNone {
			c.src, c.dst, c.sport, c.dport = src, dst, sport, dport
			t.n++
			return c
		}
	}
}

// sweep evicts entries idle for more than idleWindows guard windows
// and all Closed entries, rebuilding the probe sequence from the
// survivors. Runs at flush barriers on the shard goroutine; returns
// the number of evictions.
func (t *connTable) sweep(now uint32) int {
	t.scratch = t.scratch[:0]
	for i := range t.slots {
		c := &t.slots[i]
		if c.state == StateNone {
			continue
		}
		if c.state == StateClosed || now-c.lastWin > idleWindows {
			c.state = StateNone
			continue
		}
		t.scratch = append(t.scratch, *c)
		c.state = StateNone
	}
	evicted := t.n - len(t.scratch)
	t.n = 0
	for i := range t.scratch {
		s := &t.scratch[i]
		dst := t.insert(s.src, s.dst, s.sport, s.dport)
		dst.state = s.state
		dst.lastWin = s.lastWin
	}
	return evicted
}
