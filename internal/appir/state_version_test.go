package appir

import (
	"slices"
	"testing"

	"floodguard/internal/netpkt"
)

// Per-global epochs must move only when the named global really changes,
// and must track the store-wide version: that is the contract the
// derivation memo relies on.
func TestGlobalVersionTracksMutations(t *testing.T) {
	st := NewState()
	if v := st.GlobalVersion("mac_table"); v != 0 {
		t.Fatalf("unwritten global version = %d, want 0", v)
	}

	st.Learn("mac_table", MACValue(netpkt.MustMAC("00:00:00:00:00:01")), U16Value(1))
	v1 := st.GlobalVersion("mac_table")
	if v1 == 0 {
		t.Fatal("Learn did not bump the global epoch")
	}
	if v1 != st.Version() {
		t.Fatalf("global epoch %d != store version %d", v1, st.Version())
	}

	// A mutation of a different global must not move mac_table's epoch.
	st.SetScalar("threshold", U16Value(10))
	if got := st.GlobalVersion("mac_table"); got != v1 {
		t.Fatalf("unrelated mutation moved mac_table epoch %d -> %d", v1, got)
	}
	if got := st.GlobalVersion("threshold"); got != st.Version() {
		t.Fatalf("threshold epoch %d != store version %d", got, st.Version())
	}

	// No-op writes must not move any epoch.
	before := st.Version()
	st.Learn("mac_table", MACValue(netpkt.MustMAC("00:00:00:00:00:01")), U16Value(1))
	st.SetScalar("threshold", U16Value(10))
	if st.Version() != before {
		t.Fatal("no-op writes bumped the store version")
	}
	if got := st.GlobalVersion("mac_table"); got != v1 {
		t.Fatalf("no-op Learn moved mac_table epoch %d -> %d", v1, got)
	}

	// Unlearn, prefix add/remove, and scalar change each move only their
	// own global.
	st.Unlearn("mac_table", MACValue(netpkt.MustMAC("00:00:00:00:00:01")))
	v2 := st.GlobalVersion("mac_table")
	if v2 <= v1 {
		t.Fatalf("Unlearn did not advance mac_table epoch (%d -> %d)", v1, v2)
	}
	st.AddPrefix("routes", IPValue(netpkt.MustIPv4("10.0.0.0")), 8, U16Value(3))
	if got := st.GlobalVersion("routes"); got != st.Version() {
		t.Fatalf("AddPrefix epoch %d != store version %d", got, st.Version())
	}
	if got := st.GlobalVersion("mac_table"); got != v2 {
		t.Fatal("AddPrefix moved mac_table epoch")
	}
	st.RemovePrefix("routes", IPValue(netpkt.MustIPv4("10.0.0.0")), 8)
	if got := st.GlobalVersion("routes"); got != st.Version() {
		t.Fatalf("RemovePrefix epoch %d != store version %d", got, st.Version())
	}
}

func TestGlobalVersionsBatchAndClone(t *testing.T) {
	st := NewState()
	st.Learn("t1", U16Value(1), U16Value(2))
	st.SetScalar("s1", U16Value(3))

	got := st.GlobalVersions([]string{"t1", "s1", "absent"}, nil)
	want := []uint64{st.GlobalVersion("t1"), st.GlobalVersion("s1"), 0}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("GlobalVersions = %v, want %v", got, want)
	}

	// Appends to the supplied buffer.
	buf := make([]uint64, 0, 4)
	buf = append(buf, 99)
	buf = st.GlobalVersions([]string{"t1"}, buf)
	if len(buf) != 2 || buf[0] != 99 || buf[1] != want[0] {
		t.Fatalf("GlobalVersions append = %v", buf)
	}

	cl := st.Clone()
	if cl.GlobalVersion("t1") != st.GlobalVersion("t1") ||
		cl.GlobalVersion("s1") != st.GlobalVersion("s1") {
		t.Fatal("Clone dropped per-global epochs")
	}
	// Diverging the clone must not leak back.
	cl.SetScalar("s1", U16Value(4))
	if cl.GlobalVersion("s1") == st.GlobalVersion("s1") {
		t.Fatal("clone epoch map aliases the original")
	}
}

// The change journal must name exactly the keys written after an epoch,
// admit when it no longer can, and stay the same size however many
// entries are learned.
func TestTableChangesJournal(t *testing.T) {
	mac := func(i int) Value { return MACValue(netpkt.MACFromUint64(uint64(i))) }
	st := NewState()
	if keys, ok := st.TableChanges("macs", 0, nil); !ok || len(keys) != 0 {
		t.Fatalf("never-written table: keys %v ok %v, want none, true", keys, ok)
	}

	st.Learn("macs", mac(1), U16Value(1))
	e1 := st.GlobalVersion("macs")
	st.Learn("macs", mac(2), U16Value(2))
	st.Learn("macs", mac(2), U16Value(2)) // no-op: not journaled
	st.Learn("macs", mac(1), U16Value(9)) // re-learn with a new value
	st.Unlearn("macs", mac(2))
	st.SetScalar("other", U16Value(1)) // another global: no entry, no gap
	keys, ok := st.TableChanges("macs", e1, nil)
	if want := []Value{mac(2), mac(1), mac(2)}; !ok || !slices.Equal(keys, want) {
		t.Fatalf("changes since %d = %v ok %v, want %v", e1, keys, ok, want)
	}
	if keys, ok := st.TableChanges("macs", 0, nil); !ok || len(keys) != 4 {
		t.Fatalf("changes since 0 = %v ok %v, want all four writes", keys, ok)
	}
	if keys, ok := st.TableChanges("macs", st.GlobalVersion("macs"), nil); !ok || len(keys) != 0 {
		t.Fatalf("changes since now = %v ok %v, want none", keys, ok)
	}

	// Exactly journalCap writes after an epoch are still covered; one more
	// is not, and from then on only recent epochs are.
	since := st.GlobalVersion("macs")
	for i := 0; i < journalCap; i++ {
		st.Learn("macs", mac(100+i), U16Value(1))
	}
	if keys, ok := st.TableChanges("macs", since, nil); !ok || len(keys) != journalCap {
		t.Fatalf("%d writes: got %d keys ok %v, want all covered", journalCap, len(keys), ok)
	}
	st.Learn("macs", mac(999), U16Value(1))
	if _, ok := st.TableChanges("macs", since, nil); ok {
		t.Fatal("journal claims to cover more writes than it holds")
	}
	if keys, ok := st.TableChanges("macs", st.GlobalVersion("macs")-1, nil); !ok || !slices.Equal(keys, []Value{mac(999)}) {
		t.Fatalf("latest write = %v ok %v, want [mac 999]", keys, ok)
	}
	for i := 0; i < 10*journalCap; i++ {
		st.Learn("macs", mac(2000+i), U16Value(1))
	}
	if n := len(st.journals); n != 1 {
		t.Fatalf("%d journals for one table", n)
	}

	// A prefix table or scalar written under the same name moves the same
	// epoch with no entry to show for it: the journal must report a gap.
	since = st.GlobalVersion("macs")
	st.Learn("macs", mac(5), U16Value(5))
	st.AddPrefix("macs", IPValue(netpkt.MustIPv4("10.0.0.0")), 8, U16Value(1))
	if _, ok := st.TableChanges("macs", since, nil); ok {
		t.Fatal("journal covers an epoch in which the name was written as a prefix table")
	}
	since = st.GlobalVersion("macs")
	st.Learn("macs", mac(6), U16Value(6))
	if keys, ok := st.TableChanges("macs", since, nil); !ok || !slices.Equal(keys, []Value{mac(6)}) {
		t.Fatalf("after the gap: %v ok %v, want [mac 6]", keys, ok)
	}

	// A clone starts without the journal: it must refuse epochs it has no
	// record of and journal its own writes from then on.
	cl := st.Clone()
	if _, ok := cl.TableChanges("macs", since, nil); ok {
		t.Fatal("clone claims coverage it does not have")
	}
	since = cl.GlobalVersion("macs")
	cl.Unlearn("macs", mac(6))
	if keys, ok := cl.TableChanges("macs", since, nil); !ok || !slices.Equal(keys, []Value{mac(6)}) {
		t.Fatalf("clone's own write: %v ok %v, want [mac 6]", keys, ok)
	}
}
