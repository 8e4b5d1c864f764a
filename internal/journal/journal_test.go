package journal

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestTotalOrderProperty drives concurrent producers against a
// concurrent drainer and asserts the merged-timeline contract: per
// recorder, sequence numbers are strictly increasing; across
// recorders, the merged order is window-consistent (window numbers
// never decrease along the merged slice, and within a window the
// (Rec, Seq) tiebreak holds).
func TestTotalOrderProperty(t *testing.T) {
	const shards = 4
	const perProducer = 5000
	// Ring big enough that nothing drops even if the drainer lags.
	j := newJournal(shards, 16384, perProducer+1)
	stop := make(chan struct{})
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for {
			j.Drain()
			select {
			case <-stop:
				j.Drain()
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < shards; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rec := j.ShardRec(p)
			rng := rand.New(rand.NewSource(int64(p) + 1))
			for i := 0; i < perProducer; i++ {
				rec.Record(KindSuspect, 0, 0, 1, uint16(p), rng.Float64(), 0, 0)
			}
		}(p)
	}
	// A window ticker racing the producers: stamps may straddle the
	// advance, but per-recorder windows must still be monotone.
	for w := 1; w <= 50; w++ {
		j.SetWindow(w)
	}
	wg.Wait()
	close(stop)
	drained.Wait()

	if d := j.Dropped(); d != 0 {
		t.Fatalf("dropped %d events with an oversized ring", d)
	}
	evs := j.Events()
	if len(evs) != shards*perProducer {
		t.Fatalf("retained %d events, want %d", len(evs), shards*perProducer)
	}

	lastSeq := map[uint8]uint64{}
	lastWin := map[uint8]int32{}
	for i, ev := range evs {
		if ev.Seq <= lastSeq[ev.Rec] {
			t.Fatalf("event %d: recorder %d seq %d not strictly increasing (prev %d)",
				i, ev.Rec, ev.Seq, lastSeq[ev.Rec])
		}
		lastSeq[ev.Rec] = ev.Seq
		if ev.Window < lastWin[ev.Rec] {
			t.Fatalf("event %d: recorder %d window went backwards (%d after %d)",
				i, ev.Rec, ev.Window, lastWin[ev.Rec])
		}
		lastWin[ev.Rec] = ev.Window
		if i > 0 {
			prev := evs[i-1]
			if ev.Window < prev.Window {
				t.Fatalf("merged order: window %d after %d at index %d", ev.Window, prev.Window, i)
			}
			if ev.Window == prev.Window && ev.Rec < prev.Rec {
				t.Fatalf("merged order: rec %d after %d within window %d", ev.Rec, prev.Rec, ev.Window)
			}
			if ev.Window == prev.Window && ev.Rec == prev.Rec && ev.Seq < prev.Seq {
				t.Fatalf("merged order: seq %d after %d within (window %d, rec %d)",
					ev.Seq, prev.Seq, ev.Window, ev.Rec)
			}
		}
	}
}

// TestRetentionEvictsOldestFIFO: the flight recorder keeps the most
// recent Retain events per recorder regardless of drain timing.
func TestRetentionEvictsOldestFIFO(t *testing.T) {
	j := newJournal(0, 64, 10)
	rec := j.ControlRec()
	for i := 0; i < 35; i++ {
		rec.Record(KindBlame, 0, 0, 1, 7, float64(i), 0, 0)
		if i%3 == 0 { // drain at awkward times on purpose
			j.Drain()
		}
	}
	j.Drain()
	evs := j.Events()
	if len(evs) != 10 {
		t.Fatalf("retained %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(26 + i); ev.Seq != want {
			t.Fatalf("retained[%d].Seq = %d, want %d (oldest must be evicted first)", i, ev.Seq, want)
		}
	}
}

// TestRingOverflowCountsDrops: an undrained ring rejects the excess
// and the journal reports exactly how many events were lost.
func TestRingOverflowCountsDrops(t *testing.T) {
	j := newJournal(0, 16, 64)
	rec := j.ControlRec()
	for i := 0; i < 100; i++ {
		rec.Record(KindRingDrop, 0, 0, 1, 1, 0, 0, 0)
	}
	if d := j.Dropped(); d != 100-16 {
		t.Fatalf("Dropped() = %d, want %d", d, 100-16)
	}
	j.Drain()
	if got := len(j.Events()); got != 16 {
		t.Fatalf("retained %d, want 16", got)
	}
}

// TestNilSafety: every Journal/Recorder method must be a no-op on nil
// so instrumented hot paths stay branch-free.
func TestNilSafety(t *testing.T) {
	var j *Journal
	var r *Recorder
	r.Record(KindBlame, 0, 0, 1, 1, 0, 0, 0)
	j.SetWindow(3)
	j.AdvanceWindow()
	if j.Drain() != 0 || j.Dropped() != 0 || j.Events() != nil || j.Window() != 0 {
		t.Fatal("nil journal must be inert")
	}
	if j.ShardRec(0) != nil || j.CacheRec() != nil || j.AttribRec() != nil || j.ControlRec() != nil {
		t.Fatal("nil journal accessors must return nil recorders")
	}
	// Engine layout out-of-range shard.
	eng := ForEngine(2)
	if eng.ShardRec(2) != nil || eng.ShardRec(-1) != nil {
		t.Fatal("out-of-range ShardRec must be nil")
	}
}

// TestDumpRoundTrip: write → read preserves meta, events, violations
// and metrics, and rendering the same dump twice is byte-identical.
func TestDumpRoundTrip(t *testing.T) {
	j := ForEngine(2)
	j.SetWindow(3)
	j.ShardRec(0).Record(KindShardFlush, 0, 0, 1, 0, 100, 2, 0)
	j.AttribRec().Record(KindSuspect, 0, 0, 1, 9, 5000, 120.5, 0.6)
	j.AttribRec().Record(KindBlame, 0, 0, 1, 9, 6000, 121, 4800)
	j.SetWindow(4)
	j.ControlRec().Record(KindMigrate, 0, 0, 1, 9, 0, 0, 0)
	j.Drain()

	render := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Meta(Meta{Seed: 42, Shards: 2, Windows: 5, Trigger: "violation", SLOs: []string{"benign-loss"}, Dropped: j.Dropped()})
		for _, ev := range j.Events() {
			w.Event(ev)
		}
		w.Violation(4, "benign-loss", "loss 0.02 > ceiling 0.01")
		w.Metrics(map[string]float64{"pps": 1e6, "benign_loss": 0.02, "backlog": 17})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("two renders of the same journal differ")
	}

	d, err := ReadDump(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.Seed != 42 || d.Meta.Shards != 2 || d.Meta.Trigger != "violation" || d.Meta.Version != DumpVersion {
		t.Fatalf("meta mismatch: %+v", d.Meta)
	}
	if len(d.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(d.Events))
	}
	if d.Events[1].Kind != KindSuspect || d.Events[1].Port != 9 || d.Events[1].B != 120.5 {
		t.Fatalf("event payload mangled: %+v", d.Events[1])
	}
	if len(d.Violations) != 1 || d.Violations[0].Invariant != "benign-loss" {
		t.Fatalf("violations mangled: %+v", d.Violations)
	}
	if len(d.Metrics) != 3 || d.Metrics[0].Name != "backlog" {
		t.Fatalf("metrics must be name-sorted: %+v", d.Metrics)
	}

	var out bytes.Buffer
	if err := Explain(&out, d, 9); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"first suspect", "window 3", "blame", "migrate"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("explain output missing %q:\n%s", want, s)
		}
	}
	if err := Explain(&out, d, 55); err == nil {
		t.Fatal("explain of an unknown port must error")
	}
}

// TestKindNamesRoundTrip pins the closed kind set.
func TestKindNamesRoundTrip(t *testing.T) {
	for k := KindNone; k <= KindSLO; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Fatal("ParseKind must reject unknown names")
	}
}
