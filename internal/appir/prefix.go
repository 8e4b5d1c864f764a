package appir

import (
	"cmp"
	"maps"
	"slices"
)

// prefixTable is one longest-prefix-match table. rows holds every route
// in row order (compareRows): longest first, the order PrefixEntries
// hands the solver and the order a linear longest-match scan would try.
// levels indexes the same rows by masked network, one map per distinct
// length, so a lookup probes one map per length instead of every row.
type prefixTable struct {
	rows   []PrefixEntry
	levels []prefixLevel // one per distinct Len, longest first
}

// prefixLevel indexes the rows of one length by the network they mask
// to. Where several rows of the length mask to the same network (host
// bits set), nets holds the first of them in row order, the row a scan
// would have matched.
type prefixLevel struct {
	len  int
	mask uint32
	nets map[uint32]PrefixEntry
}

// compareRows is row order: longer prefixes first, then ascending prefix
// bits, then kind (which only non-IP prefix values can tie on). Two rows
// compare equal exactly when they are the same route.
func compareRows(a, b PrefixEntry) int {
	if a.Len != b.Len {
		return cmp.Compare(b.Len, a.Len)
	}
	if a.Prefix.Bits != b.Prefix.Bits {
		return cmp.Compare(a.Prefix.Bits, b.Prefix.Bits)
	}
	return cmp.Compare(a.Prefix.Kind, b.Prefix.Kind)
}

// prefixMask is the network mask netpkt.IPv4.InPrefix applies for a
// length: a length ≤ 0 matches every address, one ≥ 32 only the prefix
// itself.
func prefixMask(length int) uint32 {
	switch {
	case length <= 0:
		return 0
	case length >= 32:
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - length)
}

// lookup returns the value of the first row, in row order, whose prefix
// contains ip.
func (t *prefixTable) lookup(ip Value) (Value, bool) {
	a := uint32(ip.IP())
	for i := range t.levels {
		l := &t.levels[i]
		if e, ok := l.nets[a&l.mask]; ok {
			return e.Val, true
		}
	}
	return Value{}, false
}

// add inserts row, or sets the value of the route it names. It reports
// false when the route already holds that value.
func (t *prefixTable) add(row PrefixEntry) bool {
	i, found := slices.BinarySearchFunc(t.rows, row, compareRows)
	switch {
	case found && t.rows[i].Val == row.Val:
		return false
	case found:
		t.rows[i].Val = row.Val
	default:
		t.rows = slices.Insert(t.rows, i, row)
	}
	li, ok := t.level(row.Len)
	if !ok {
		t.levels = slices.Insert(t.levels, li, prefixLevel{
			len: row.Len, mask: prefixMask(row.Len), nets: make(map[uint32]PrefixEntry),
		})
	}
	l := &t.levels[li]
	net := uint32(row.Prefix.IP()) & l.mask
	if w, ok := l.nets[net]; !ok || compareRows(row, w) <= 0 {
		l.nets[net] = row
	}
	return true
}

// remove deletes the route (prefix, length) and reports whether it was
// there.
func (t *prefixTable) remove(prefix Value, length int) bool {
	row := PrefixEntry{Prefix: prefix, Len: length}
	i, found := slices.BinarySearchFunc(t.rows, row, compareRows)
	if !found {
		return false
	}
	t.rows = slices.Delete(t.rows, i, i+1)
	li, _ := t.level(length)
	l := &t.levels[li]
	net := uint32(prefix.IP()) & l.mask
	if compareRows(l.nets[net], row) != 0 {
		return true // an earlier row answers for the network
	}
	// No row of this length before i masks to net, or it would have
	// answered: the next one that does from i on takes over.
	for _, r := range t.rows[i:] {
		if r.Len != length {
			break
		}
		if uint32(r.Prefix.IP())&l.mask == net {
			l.nets[net] = r
			return true
		}
	}
	delete(l.nets, net)
	if len(l.nets) == 0 {
		t.levels = slices.Delete(t.levels, li, li+1)
	}
	return true
}

// level finds the index level of a length, or where it would go.
func (t *prefixTable) level(length int) (int, bool) {
	return slices.BinarySearchFunc(t.levels, length, func(l prefixLevel, n int) int { return cmp.Compare(n, l.len) })
}

// clone returns an independent copy, index included.
func (t *prefixTable) clone() *prefixTable {
	out := &prefixTable{rows: slices.Clone(t.rows), levels: slices.Clone(t.levels)}
	for i := range out.levels {
		out.levels[i].nets = maps.Clone(t.levels[i].nets)
	}
	return out
}
