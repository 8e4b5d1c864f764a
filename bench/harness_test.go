package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	tm := summarize(s)
	if tm.N != 1000 || tm.P50 != 500 || tm.TailQ != 0.99 || tm.TailVal != 990 {
		t.Errorf("summarize(1..1000) = %+v", tm)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestPacerDueTimeAndLag(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, rate: 1000}
	if n := p.dueBy(start.Add(-time.Second)); n != 0 {
		t.Errorf("due before start = %d", n)
	}
	first, n, lag := p.take(start.Add(10 * time.Millisecond))
	if first != 0 || n != 10 || lag != 10*time.Millisecond {
		t.Errorf("first take = (%d, %d, %v), want (0, 10, 10ms)", first, n, lag)
	}
	if got := p.dueTime(5); !got.Equal(start.Add(5 * time.Millisecond)) {
		t.Errorf("dueTime(5) = %v", got.Sub(start))
	}
	if _, n, _ := p.take(start.Add(10500 * time.Microsecond)); n != 0 {
		t.Errorf("take with nothing newly due sent %d", n)
	}
	// A 2 ms stall: the two frames that became due are sent late, and
	// the lag is measured from the first one's due time.
	first, n, lag = p.take(start.Add(12 * time.Millisecond))
	if first != 10 || n != 2 || lag != 2*time.Millisecond {
		t.Errorf("take after stall = (%d, %d, %v), want (10, 2, 2ms)", first, n, lag)
	}
}

func TestSpanSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 0, Parent: -1, Start: 0, End: 100, Count: 4},
		{Name: "child", ID: 1, Parent: 0, Start: 10, End: 30, Count: 1},
		{Name: "child", ID: 2, Parent: 0, Start: 20, End: 50, Count: 1},  // overlaps the first: merged
		{Name: "child", ID: 3, Parent: 0, Start: 90, End: 120, Count: 1}, // clipped to the parent
		{Name: "grandchild", ID: 4, Parent: 1, Start: 12, End: 18, Count: 1},
	}
	tot := selfTimes(spans)
	if got := tot["parent"].SelfNS; got != 100-40-10 {
		t.Errorf("parent self = %d, want 50", got)
	}
	if got := tot["child"].SelfNS; got != (20-6)+30+30 {
		t.Errorf("child self = %d, want 74", got)
	}
	if got := tot["parent"].perCountNS(); got != 12.5 {
		t.Errorf("parent ns per count = %v, want 12.5", got)
	}

	tr := newTracer()
	rec := tr.recorder()
	h := rec.begin("outer", -1, 7)
	c := rec.begin("inner", rec.id(h), 7)
	rec.end(c, 3)
	rec.end(h, 3)
	all := tr.all()
	if len(all) != 2 || all[1].Parent != all[0].ID || all[0].Batch != 7 || all[1].Count != 3 {
		t.Errorf("recorded spans = %+v", all)
	}
	var none *tracer
	if r := none.recorder(); r.begin("x", -1, 0) != -1 || r.end(-1, 1) != -1 || none.all() != nil {
		t.Error("nil tracer must record nothing")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestVocabularyNames(t *testing.T) {
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range endToEnd {
		use("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		use("layer", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Moves == "" || d.On == "" {
			t.Errorf("%s: a layer metric names the end-to-end metric and workload it should move", d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the
// program's vocabulary identical, both ways.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" || f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", f.Paths, f.RunSeconds, f.Command)
	}
	if len(f.Workloads) != len(workloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end, %d layer metrics; the program has %d, %d, %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file %+v, program %+v", i, f.Workloads[i], w)
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, g, d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for i, d := range perLayer {
		g := f.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("layer %d: file %+v, program %+v", i, g, d)
		}
	}
}

// TestSmokeEveryWorkload runs each workload traced at smoke size: every
// check passes, every name of the vocabulary is emitted and nothing
// else, every end-to-end metric is non-zero, and the staged sum plus
// the unattributed remainder is the engine's ns per packet.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		res, err := runOne(w.Name, runCtx{Seed: devSeed, Seconds: 0.25, Smoke: true}, true, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if res.hardFailed() != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, res.Attempted, res.hardFailed())
		}
		if len(res.E2E) != len(endToEnd) || len(res.Layer) != len(perLayer) {
			t.Errorf("%s: emitted %d end-to-end and %d layer metrics, vocabulary has %d and %d",
				w.Name, len(res.E2E), len(res.Layer), len(endToEnd), len(perLayer))
		}
		for _, d := range endToEnd {
			if v, ok := res.E2E[d.Name]; !ok || v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s = %+v", w.Name, d.Name, v)
			}
		}
		for _, d := range perLayer {
			if v, ok := res.Layer[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
				t.Errorf("%s: layer %s = %+v", w.Name, d.Name, v)
			}
		}
		if _, err := os.Stat(dir + "/" + w.Name + ".spans.csv"); err != nil {
			t.Errorf("%s: no span dump: %v", w.Name, err)
		}
		if ns := res.Layer["rtc.ns_per_pkt"].Value; ns > 0 {
			sum := res.Layer["rtc.staged_ns"].Value + res.Layer["rtc.unattributed_ns"].Value
			if math.Abs(sum-ns) > 1e-6*ns {
				t.Errorf("%s: staged %v + unattributed %v != ns_per_pkt %v", w.Name,
					res.Layer["rtc.staged_ns"].Value, res.Layer["rtc.unattributed_ns"].Value, ns)
			}
		}
	}
}
