package main

import "slices"

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// regression bounds, and layer metrics with the end-to-end metric each
// should move. BENCHMARK.json repeats the names, units, directions and
// bounds (a test keeps the two in step); the "moves" column lives only
// here and in README.md because BENCHMARK.json's schema has no field
// for it.

type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"wire_benign", "closed loop, 0% spoof, 256 flows over 32 exact + 1024 derived rules: bare forwarding at the smallest frame; the should-not-move row for attack-path work"},
	{"wire_flood", "closed loop, 50% fresh-key spoofed frames, TCP guard on: post-mitigation steady state where every spoof buys a priority scan and the miss path runs end to end"},
	{"flood_install", "open loop 500 kpps, 25% spoof, 10000 proactive rules derived and installed one Engine.Apply at a time under load: the mitigation moment, writes beside reads"},
	{"soak_adaptive", "soak.Run, 60 s virtual, all attacker profiles, chaos, TCP guard, SYN flood: attribution, chaos and window barriers in virtual time; outcomes repeat exactly"},
	{"paper_defense", "paper stack testbed, Fig. 10 rates x 12 flood seeds with and without FloodGuard plus Tab. IV: switchsim, controller, core, netsim, openflow, appir"},
}

type e2eDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	Bound  float64
	// Native lists the workloads the metric is measured on (README.md
	// says what). On every other workload a metric in a wall-clock unit
	// reads that workload's nearest real time and any other metric reads
	// the neutral value 1: the contract wants every run to print every
	// metric, and a constant can never regress.
	Native []string
}

const (
	higher = "higher"
	lower  = "lower"
)

var allWorkloads = []string{"wire_benign", "wire_flood", "flood_install", "soak_adaptive", "paper_defense"}
var wireWorkloads = []string{"wire_benign", "wire_flood", "flood_install"}

var endToEnd = []e2eDef{
	{"setup_s", "s", lower, 0.25, allWorkloads},
	{"pps", "1/s", higher, 0.25, wireWorkloads},
	{"benign_fwd_share", "share", higher, 0.25, []string{"wire_flood", "flood_install"}},
	{"ok_share", "share", higher, 0.25, allWorkloads},
	{"ttm_s", "s", lower, 0.25, []string{"flood_install"}},
	{"lat_p50_us", "us", lower, 0.25, []string{"flood_install"}},
	{"peak_rss_mb", "MB", lower, 0.25, allWorkloads},
	{"soak_pps", "1/s", higher, 0.25, []string{"soak_adaptive"}},
	{"detect_ms", "vms", lower, 0.01, []string{"soak_adaptive"}},
	{"sim_speedup", "x", higher, 0.25, []string{"paper_defense"}},
	{"goodput_retained", "share", higher, 0.01, []string{"paper_defense"}},
	{"first_pkt_delay_ms", "vms", lower, 0.01, []string{"paper_defense"}},
}

type layerDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string // end-to-end metric it should move
	On     string // workload(s) where the move should show
}

var perLayer = []layerDef{
	{"netpkt.parse_ns", "ns", lower, "pps", "wire_benign"},
	{"spsc.handoff_ns", "ns", lower, "pps", "wire_benign"},
	{"dpcache.classify_ns", "ns", lower, "pps", "wire_benign"},
	{"flowtable.lookup_hit_ns", "ns", lower, "pps", "wire_benign"},
	{"flowtable.lookup_miss_ns", "ns", lower, "pps, ok_share, benign_fwd_share, lat_p50_us", "wire_flood, flood_install"},
	{"flowtable.micro_hit_share", "share", higher, "pps", "wire_flood, flood_install"},
	{"flowtable.micro_resets", "count", lower, "pps", "wire_flood, flood_install"},
	{"flowtable.rules", "count", lower, "pps", "wire_flood, flood_install"},
	{"flowtable.add_us", "us", lower, "ttm_s", "flood_install"},
	{"rtc.apply_p50_us", "us", lower, "ttm_s", "flood_install"},
	{"rtc.apply_p99_us", "us", lower, "ttm_s", "flood_install"},
	{"rtc.apply_n", "count", higher, "ttm_s", "flood_install"},
	{"rtc.idle_install_ms", "ms", lower, "setup_s", "wire_benign, wire_flood"},
	{"symexec.explore_us", "us", lower, "ttm_s", "flood_install"},
	{"symexec.derive_ms", "ms", lower, "ttm_s, sim_speedup", "flood_install, paper_defense"},
	{"symexec.derive_warm_ms", "ms", lower, "ttm_s", "flood_install"},
	{"attrib.observe_ns", "ns", lower, "pps", "wire_flood"},
	{"tcpguard.process_ns", "ns", lower, "pps", "wire_flood"},
	{"tcpguard.syn_acked", "count", higher, "pps", "wire_flood"},
	{"tcpguard.conn_watermark", "count", lower, "pps", "wire_flood"},
	{"attrib.flush_us", "us", lower, "soak_pps", "soak_adaptive"},
	{"attrib.roll_us", "us", lower, "soak_pps", "soak_adaptive"},
	{"journal.append_ns", "ns", lower, "soak_pps", "soak_adaptive"},
	{"journal.dropped", "count", lower, "soak_pps", "soak_adaptive"},
	{"dpcache.ingest_ns", "ns", lower, "pps", "wire_flood"},
	{"dpcache.replay_ns", "ns", lower, "pps", "wire_flood"},
	{"openflow.packet_in_ns", "ns", lower, "pps", "wire_flood"},
	{"dpcache.dropped_share", "share", lower, "pps", "wire_flood"},
	{"dpcache.backlog_max", "count", lower, "pps", "wire_flood"},
	{"rtc.ns_per_pkt", "ns", lower, "pps", "wire_benign, wire_flood, flood_install"},
	{"rtc.staged_ns", "ns", lower, "pps", "wire_benign, wire_flood, flood_install"},
	{"rtc.unattributed_ns", "ns", lower, "pps", "wire_benign, wire_flood, flood_install"},
	{"rtc.ring_drops", "count", lower, "benign_fwd_share", "wire_flood, flood_install"},
	{"rtc.ingress_refused_share", "share", lower, "ok_share", "flood_install"},
	{"rtc.allocs_per_pkt", "1/pkt", lower, "pps", "wire_benign, wire_flood, flood_install"},
	{"rtc.gc_pause_ms", "ms", lower, "pps", "wire_benign, wire_flood, flood_install"},
	{"rtc.lat_p99_us", "us", lower, "lat_p50_us", "flood_install"},
	{"rtc.lat_n", "count", higher, "lat_p50_us", "flood_install"},
	{"rtc.wire_out_bytes", "B", higher, "pps", "wire_flood"},
	{"core.detect_ms", "vms", lower, "goodput_retained", "paper_defense"},
	{"core.init_to_defense_ms", "vms", lower, "goodput_retained", "paper_defense"},
	{"core.derive_us", "us", lower, "sim_speedup", "paper_defense"},
	{"core.rules_installed", "count", higher, "goodput_retained", "paper_defense"},
	{"controller.packet_ins", "count", lower, "goodput_retained, first_pkt_delay_ms", "paper_defense"},
	{"switchsim.misses", "count", lower, "goodput_retained", "paper_defense"},
	{"switchsim.amplified_ins", "count", lower, "goodput_retained", "paper_defense"},
	{"netsim.events_per_s", "1/s", higher, "sim_speedup", "paper_defense"},
	{"soak.replay_wait_p99_ms", "vms", lower, "detect_ms", "soak_adaptive"},
	{"soak.benign_loss", "share", lower, "ok_share", "soak_adaptive"},
	{"soak.max_mem_frac", "share", lower, "ok_share", "soak_adaptive"},
	{"soak.windows", "count", higher, "detect_ms", "soak_adaptive"},
	{"bench.gen_lag_p99_ms", "ms", lower, "none (qualifies the run)", "flood_install"},
	{"bench.trace_overhead_share", "share", lower, "none (qualifies the run)", "all"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value, seeded with every name of a
// table so a run always prints the full vocabulary.
type metricSet map[string]metricValue

// newE2ESet returns every end-to-end metric at its neutral reading 1.
func newE2ESet() metricSet {
	m := make(metricSet, len(endToEnd))
	for _, d := range endToEnd {
		m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
	}
	return m
}

// newLayerSet returns every layer metric at 0 (a layer the workload
// bypasses did no work).
func newLayerSet() metricSet {
	m := make(metricSet, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = metricValue{Unit: d.Unit}
	}
	return m
}

// nativeOn reports whether the metric is measured on the workload.
func (d e2eDef) nativeOn(workload string) bool { return slices.Contains(d.Native, workload) }

// set stores v under name; the name must be in the vocabulary.
func (m metricSet) set(name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not in the vocabulary")
	}
	mv.Value = v
	m[name] = mv
}
