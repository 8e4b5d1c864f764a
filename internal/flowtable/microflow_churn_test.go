package flowtable

import (
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// Deleting one rule must not evict cached results for packets outside
// its scope: the bystander flow keeps its cache entry, proven valid by
// mutation-log replay instead of being thrown away.
func TestMicroflowSelectiveRetentionAcrossDelete(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	a := mfPacket(0x0a000001, 0x0a000002, 80)
	b := mfPacket(0x0a000003, 0x0a000004, 443)
	mfAdd(t, tbl, &a, 1, 10, nil, now)
	mfAdd(t, tbl, &b, 1, 10, nil, now)
	prime(t, tbl, &a, now)
	prime(t, tbl, &b, now)

	if _, err := tbl.Apply(openflow.FlowMod{
		Match:    openflow.ExactFrom(&b, 1),
		Command:  openflow.FlowDeleteStrict,
		Priority: 10,
		OutPort:  openflow.PortNone,
	}, now); err != nil {
		t.Fatal(err)
	}

	st := tbl.Stats()
	hits, revals := st.MicroflowHits, st.Revalidations
	if e := tbl.Lookup(&a, 1, now, 64); e == nil {
		t.Fatal("bystander flow lost its rule")
	}
	st = tbl.Stats()
	if st.MicroflowHits != hits+1 {
		t.Error("bystander lookup fell through to the priority scan")
	}
	if st.Revalidations != revals+1 {
		t.Errorf("revalidations = %d, want %d (stale entry proven by replay)",
			st.Revalidations, revals+1)
	}
	// The deleted flow's cached entry must not survive.
	if e := tbl.Lookup(&b, 1, now, 64); e != nil {
		t.Fatalf("deleted rule still served from cache: %v", e)
	}
}

// A miss is never stored: repeats of a missing tuple go back to the
// classifier every time and occupy no cache slot, and an add is visible
// to the very next lookup.
func TestMicroflowMissNeverStored(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	a := mfPacket(0x0a000001, 0x0a000002, 80)
	other := mfPacket(0x0a000005, 0x0a000006, 53)

	if e := tbl.Lookup(&a, 1, now, 64); e != nil {
		t.Fatal("empty table matched")
	}
	mfAdd(t, tbl, &other, 1, 10, nil, now) // out of a's scope
	before := tbl.Stats()
	if e := tbl.Lookup(&a, 1, now, 64); e != nil {
		t.Fatal("unrelated add made the miss a hit")
	}
	st := tbl.Stats()
	if st.MicroflowHits != before.MicroflowHits || st.MicroflowMisses != before.MicroflowMisses+1 {
		t.Errorf("repeated miss was served from the cache: before %+v after %+v", before, st)
	}
	if st.MicroflowEntries != 0 {
		t.Errorf("misses occupy %d cache slots", st.MicroflowEntries)
	}
	mfAdd(t, tbl, &a, 1, 10, nil, now) // covering add
	if e := tbl.Lookup(&a, 1, now, 64); e == nil {
		t.Fatal("add not visible to the next lookup")
	}
}

// Once churn outruns the mutation ring, retention degrades to a rescan —
// never to a wrong answer.
func TestMicroflowRetentionBeyondRingRescans(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	a := mfPacket(0x0a000001, 0x0a000002, 80)
	mfAdd(t, tbl, &a, 1, 10, nil, now)
	prime(t, tbl, &a, now)

	for i := 0; i < mutLogSize+4; i++ {
		p := mfPacket(0x0b000000+uint32(i), 0x0c000000+uint32(i), 99)
		mfAdd(t, tbl, &p, 1, 10, nil, now)
	}
	revals := tbl.Stats().Revalidations
	misses := tbl.Stats().MicroflowMisses
	if e := tbl.Lookup(&a, 1, now, 64); e == nil {
		t.Fatal("lookup missed after ring overflow")
	}
	st := tbl.Stats()
	if st.Revalidations != revals {
		t.Error("entry older than the ring window claimed a replay")
	}
	if st.MicroflowMisses != misses+1 {
		t.Error("expected a rescan once the stamp fell out of the ring window")
	}
	// Re-cached now; the next lookup hits again.
	hits := st.MicroflowHits
	if e := tbl.Lookup(&a, 1, now, 64); e == nil || tbl.Stats().MicroflowHits != hits+1 {
		t.Fatal("rescan did not re-prime the cache")
	}
}

// Expiry records each dead rule's own match: flows served by surviving
// rules keep their cache entries across another flow's idle timeout.
func TestMicroflowSelectiveRetentionAcrossExpire(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := New(0)
	a := mfPacket(0x0a000001, 0x0a000002, 80)
	b := mfPacket(0x0a000003, 0x0a000004, 443)
	mfAdd(t, tbl, &a, 1, 10, nil, now)
	mfAdd(t, tbl, &b, 1, 10, func(fm *openflow.FlowMod) { fm.IdleTimeout = 5 }, now)
	prime(t, tbl, &a, now)

	later := now.Add(time.Minute)
	// Keep a's rule alive: it has no timeout; b's idles out.
	if rm := tbl.Expire(later); len(rm) != 1 {
		t.Fatalf("Expire removed %d rules, want 1", len(rm))
	}
	hits := tbl.Stats().MicroflowHits
	if e := tbl.Lookup(&a, 1, later, 64); e == nil {
		t.Fatal("surviving flow lost its rule")
	}
	if tbl.Stats().MicroflowHits != hits+1 {
		t.Error("surviving flow's cache entry did not outlive the expiry")
	}
	if e := tbl.Lookup(&b, 1, later, 64); e != nil {
		t.Fatal("expired rule still served")
	}
}

// BenchmarkMicroflowHitRetentionUnderChurn measures the cache's hit
// rate while unrelated rules churn — the scenario whole-cache
// invalidation handles worst (every mutation used to zero the cache).
// The hitrate metric is the fraction of lookups served by the cache.
func BenchmarkMicroflowHitRetentionUnderChurn(b *testing.B) {
	for _, churnEvery := range []int{4, 16, 64} {
		b.Run(map[int]string{4: "churn-every-4", 16: "churn-every-16", 64: "churn-every-64"}[churnEvery], func(b *testing.B) {
			now := time.Unix(1000, 0)
			tbl := New(0)
			const flows = 64
			pkts := make([]netpkt.Packet, flows)
			for i := range pkts {
				pkts[i] = mfPacket(0x0a000100+uint32(i), 0x0a000200+uint32(i), 80)
				fm := openflow.FlowMod{
					Match:    openflow.ExactFrom(&pkts[i], 1),
					Command:  openflow.FlowAdd,
					Priority: 10,
					Actions:  []openflow.Action{openflow.Output(2)},
				}
				if _, err := tbl.Apply(fm, now); err != nil {
					b.Fatal(err)
				}
			}
			for i := range pkts { // warm the cache
				tbl.Lookup(&pkts[i], 1, now, 64)
			}
			start := tbl.Stats()
			churn := mfPacket(0x0bffffff, 0x0cffffff, 9999)
			churnMod := openflow.FlowMod{
				Match:    openflow.ExactFrom(&churn, 1),
				Command:  openflow.FlowAdd,
				Priority: 10,
				Actions:  []openflow.Action{openflow.Output(3)},
			}
			del := churnMod
			del.Command = openflow.FlowDeleteStrict
			del.OutPort = openflow.PortNone
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%churnEvery == 0 {
					if i%(2*churnEvery) == 0 {
						_, _ = tbl.Apply(churnMod, now)
					} else {
						_, _ = tbl.Apply(del, now)
					}
				}
				tbl.Lookup(&pkts[i%flows], 1, now, 64)
			}
			b.StopTimer()
			st := tbl.Stats()
			lookups := st.Lookups - start.Lookups
			hits := st.MicroflowHits - start.MicroflowHits
			if lookups > 0 {
				b.ReportMetric(float64(hits)/float64(lookups), "hitrate")
			}
		})
	}
}
