package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval, recorded by the harness around a call
// into a layer. Times are nanoseconds since the tracer's epoch. Batch is
// the shared identifier of everything that handled the same burst of
// packets (or the same flow_mod, soak run, testbed point).
type span struct {
	Name       string
	ID, Parent int32 // Parent -1 = root
	Batch      int64
	Start, End int64
	Count      int64 // packets / operations the span covers
}

// tracer hands out per-goroutine recorders and merges them at the end.
// A nil tracer (the untraced run) yields nil recorders, whose methods
// return without reading the clock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32
	mu     sync.Mutex
	recs   []*spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRec is a single-goroutine span buffer.
type spanRec struct {
	tr    *tracer
	spans []span
}

func (t *tracer) recorder() *spanRec {
	if t == nil {
		return nil
	}
	r := &spanRec{tr: t, spans: make([]span, 0, 1<<12)}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// begin opens a span and returns its handle (-1 on a nil recorder).
func (r *spanRec) begin(name string, parent int32, batch int64) int32 {
	if r == nil {
		return -1
	}
	id := r.tr.nextID.Add(1) - 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Batch: batch,
		Start: int64(time.Since(r.tr.epoch))})
	return int32(len(r.spans) - 1)
}

// end closes the span opened by begin and returns its id for use as a
// parent.
func (r *spanRec) end(h int32, count int64) int32 {
	if r == nil || h < 0 {
		return -1
	}
	s := &r.spans[h]
	s.End = int64(time.Since(r.tr.epoch))
	s.Count = count
	return s.ID
}

// id returns the span id behind a handle (for parenting children while
// the span is still open).
func (r *spanRec) id(h int32) int32 {
	if r == nil || h < 0 {
		return -1
	}
	return r.spans[h].ID
}

// all merges every recorder's spans, ordered by start time.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		out = append(out, r.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// spanTotals is the per-name aggregate of a span set.
type spanTotals struct {
	Spans  int
	Count  int64
	DurNS  int64 // summed duration
	SelfNS int64 // summed duration minus the part children cover
}

// selfTimes computes each span's self time — its duration minus the
// part of that interval its direct children cover (overlapping children
// are merged, children are clipped to the parent) — and aggregates by
// name.
func selfTimes(spans []span) map[string]*spanTotals {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		covered := int64(0)
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := s.Start
		for _, k := range iv {
			lo, hi := k[0], k[1]
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Spans++
		t.Count += s.Count
		t.DurNS += s.End - s.Start
		t.SelfNS += s.End - s.Start - covered
	}
	return out
}

// perCountNS is a span family's self time per covered packet/operation.
func (t *spanTotals) perCountNS() float64 {
	if t == nil || t.Count == 0 {
		return 0
	}
	return float64(t.SelfNS) / float64(t.Count)
}

// writeSpans dumps the spans as CSV under dir (created if missing).
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.csv"))
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name,id,parent,batch,start_ns,end_ns,count")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", s.Name, s.ID, s.Parent, s.Batch, s.Start, s.End, s.Count)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
