package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func shortPPS(t *testing.T) *PPSResult {
	t.Helper()
	r, err := RunPPS(PPSConfig{
		Shards:   2,
		Duration: 60 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkPPS(t *testing.T, r *PPSResult) {
	t.Helper()
	if r.SustainedPPS <= 0 {
		t.Fatalf("no throughput: %+v", r)
	}
	if r.Forwarded+r.Misses != r.Processed {
		t.Fatalf("forwarded %d + misses %d != processed %d", r.Forwarded, r.Misses, r.Processed)
	}
	if r.Replayed+r.CacheDrop+uint64(r.Backlog) > r.Misses {
		t.Fatalf("cache outputs exceed misses: %+v", r)
	}
	if r.Processed > r.Offered {
		t.Fatalf("processed %d > offered %d", r.Processed, r.Offered)
	}
	if r.P99 == 0 || r.P50 > r.P99 {
		t.Fatalf("bad quantiles p50=%v p99=%v", r.P50, r.P99)
	}
}

func TestRunPPSSharded(t *testing.T) {
	checkPPS(t, shortPPS(t))
}

// TestRunPPSChurnAppliesFlowMods drives the engine with rule churn on
// and requires the conservation contract to survive it — plus proof
// that the churn actually ran (mods applied, none erroring).
func TestRunPPSChurnAppliesFlowMods(t *testing.T) {
	r, err := RunPPS(PPSConfig{
		Shards:      2,
		Duration:    80 * time.Millisecond,
		Seed:        7,
		FlowModRate: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPPS(t, r)
	if r.FlowMods == 0 {
		t.Errorf("churn applied no flow_mods")
	}
	if r.FlowModErrs != 0 {
		t.Errorf("%d flow_mod errors", r.FlowModErrs)
	}
}

func TestWritePPSCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePPSCSV(&buf, []*PPSResult{shortPPS(t)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "sharded,2,") {
		t.Fatalf("unexpected row:\n%s", buf.String())
	}
}
