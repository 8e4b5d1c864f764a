package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies a registered metric for exposition.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// entry is one registered metric. Exactly one of scalar/hist is set.
type entry struct {
	name   string // full name, optionally with baked labels: foo_total{class="tcp"}
	help   string
	kind   Kind
	scalar func() float64
	hist   *Histogram
}

// base splits the metric name into its base name and label body
// ("foo{a=\"b\"}" → "foo", "a=\"b\"").
func (e *entry) base() (string, string) {
	if i := strings.IndexByte(e.name, '{'); i >= 0 {
		return e.name[:i], strings.TrimSuffix(e.name[i+1:], "}")
	}
	return e.name, ""
}

// Registry is a named collection of metrics, the single source of truth
// a deployment exposes. Registration is cheap but not hot-path; reads
// (exposition) touch only atomics and read-locked snapshot functions, so
// a scrape never blocks a packet.
//
// Registering a name that already exists replaces the previous entry
// (last registration wins). Sequential experiment runs can therefore
// share one live registry: each fresh testbed re-registers its
// components under the same names and the endpoint follows the newest
// run.
type Registry struct {
	mu      sync.RWMutex
	order   []string
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) register(e *entry) {
	r.mu.Lock()
	if _, ok := r.entries[e.name]; !ok {
		r.order = append(r.order, e.name)
	}
	r.entries[e.name] = e
	r.mu.Unlock()
}

// RegisterCounter attaches an existing counter under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(&entry{name: name, help: help, kind: KindCounter,
		scalar: func() float64 { return float64(c.Value()) }})
}

// CounterFunc registers a pull-through counter; fn must be safe to call
// from any goroutine (read atomics, or snapshot under the owner's lock).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&entry{name: name, help: help, kind: KindCounter,
		scalar: func() float64 { return float64(fn()) }})
}

// RegisterGauge attaches an existing gauge under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.register(&entry{name: name, help: help, kind: KindGauge,
		scalar: func() float64 { return float64(g.Value()) }})
}

// RegisterFloatGauge attaches an existing float gauge under name.
func (r *Registry) RegisterFloatGauge(name, help string, g *FloatGauge) {
	r.register(&entry{name: name, help: help, kind: KindGauge, scalar: g.Value})
}

// GaugeFunc registers a pull-through gauge; fn must be safe to call from
// any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&entry{name: name, help: help, kind: KindGauge, scalar: fn})
}

// Histogram creates and registers a histogram over bounds (nil picks
// LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram attaches an existing histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(&entry{name: name, help: help, kind: KindHistogram, hist: h})
}

// snapshotEntries copies the entry list under the read lock.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.entries[name])
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Metrics sharing a base name (label variants)
// are grouped under one HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.snapshotEntries()
	// Group by base name, preserving first-registration order.
	var bases []string
	grouped := make(map[string][]*entry)
	for _, e := range entries {
		b, _ := e.base()
		if _, ok := grouped[b]; !ok {
			bases = append(bases, b)
		}
		grouped[b] = append(grouped[b], e)
	}
	sort.Strings(bases)
	for _, b := range bases {
		group := grouped[b]
		if h := group[0].help; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", b, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", b, group[0].kind); err != nil {
			return err
		}
		for _, e := range group {
			if err := writePromEntry(w, e); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromEntry(w io.Writer, e *entry) error {
	base, labels := e.base()
	if e.hist == nil {
		_, err := fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(e.scalar()))
		return err
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, b := range e.hist.Buckets() {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatFloat(b.UpperBound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", base, labels, sep, le, b.Count); err != nil {
			return err
		}
	}
	lb := ""
	if labels != "" {
		lb = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, lb, formatFloat(e.hist.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, lb, e.hist.Count())
	return err
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// MetricSnapshot is one metric in a JSON snapshot.
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   float64  `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of the whole registry.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot captures every metric.
func (r *Registry) Snapshot() Snapshot {
	entries := r.snapshotEntries()
	s := Snapshot{Metrics: make([]MetricSnapshot, 0, len(entries))}
	for _, e := range entries {
		ms := MetricSnapshot{Name: e.name, Kind: e.kind.String()}
		if e.hist != nil {
			ms.Count = e.hist.Count()
			ms.Sum = e.hist.Sum()
			ms.Buckets = e.hist.Buckets()
		} else {
			ms.Value = e.scalar()
		}
		s.Metrics = append(s.Metrics, ms)
	}
	return s
}

// WriteJSON renders the snapshot as JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// DumpCSV appends one long-format row per scalar metric (histograms
// contribute their _count and _sum): `elapsed_ms,name,value`. Used by
// fgsim's -metrics-csv periodic dump.
func (r *Registry) DumpCSV(w io.Writer, elapsed time.Duration) error {
	ms := int64(elapsed / time.Millisecond)
	for _, e := range r.snapshotEntries() {
		if e.hist != nil {
			base, labels := e.base()
			if labels != "" {
				labels = "{" + labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%d,%s_count%s,%d\n", ms, base, labels, e.hist.Count()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%d,%s_sum%s,%s\n", ms, base, labels, formatFloat(e.hist.Sum())); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%s\n", ms, e.name, formatFloat(e.scalar())); err != nil {
			return err
		}
	}
	return nil
}
