package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
	"time"

	"floodguard/internal/netsim"
	"floodguard/internal/telemetry"
)

// liveReg, when set, is instrumented by every subsequently built
// testbed. Registration is last-wins, so sequential experiment runs
// share the one registry and a live endpoint follows the newest run.
var liveReg *telemetry.Registry

// SetRegistry installs a process-wide registry for all future testbeds
// (nil disables). Call before running experiments; not safe to flip
// while one is running.
func SetRegistry(reg *telemetry.Registry) { liveReg = reg }

// Instrument attaches every testbed component to reg: the guard (FSM
// state and counters, caches, controller, pipeline tracer) when
// present, plus the switch datapath and its flow table. The switch
// shares the guard's tracer so table-miss→controller latency lands in
// the same fg_pipeline_seconds family as the cache-wait and re-raise
// stages.
func (tb *Testbed) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	var tr *telemetry.Tracer
	if tb.Guard != nil {
		tr = tb.Guard.Instrument(reg)
	} else {
		tb.Ctrl.Instrument(reg, "fg_controller")
	}
	tb.Switch.SetTracer(tr)
	tb.Switch.Instrument(reg, "fg_switch")
}

// TelemetryWindow is one periodic sample of the live run: the signals an
// operator would watch on a dashboard, resolved per sampling window.
type TelemetryWindow struct {
	At               time.Duration
	State            string
	PacketInRatePPS  float64
	MigrationRatePPS float64
	CacheBacklog     int
	Replayed         uint64
	DegradedDrops    uint64
	GoodputShare     float64
	SwitchPacketIns  uint64
}

// windowSampler collects TelemetryWindow rows on the engine goroutine:
// an engine ticker keeps sampling in-discipline.
type windowSampler struct {
	tb     *Testbed
	start  time.Time
	ticker *netsim.Ticker
	rows   []TelemetryWindow
}

// sampleWindows starts sampling tb every period; the At column counts
// from now.
func sampleWindows(tb *Testbed, every time.Duration) *windowSampler {
	ws := &windowSampler{tb: tb, start: tb.Eng.Now()}
	ws.ticker = tb.Eng.NewTicker(every, ws.sample)
	return ws
}

// stop disarms the ticker and returns the rows.
func (ws *windowSampler) stop() []TelemetryWindow {
	ws.ticker.Stop()
	return ws.rows
}

func (ws *windowSampler) sample() {
	tb := ws.tb
	row := TelemetryWindow{
		At:              tb.Eng.Now().Sub(ws.start),
		GoodputShare:    tb.Switch.GoodputShare(),
		SwitchPacketIns: tb.Switch.Stats().PacketIns,
	}
	if tb.Guard != nil {
		row.State = tb.Guard.State().String()
		row.PacketInRatePPS = tb.Guard.PacketInRate()
		row.MigrationRatePPS = tb.Guard.MigrationRate()
		row.Replayed = tb.Guard.Replayed()
		row.DegradedDrops = tb.Guard.DegradedDrops()
		row.CacheBacklog = tb.Guard.Cache().Stats().Backlog
	}
	ws.rows = append(ws.rows, row)
}

// WriteCSVWindows emits per-window telemetry rows.
func WriteCSVWindows(w io.Writer, windows []TelemetryWindow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"t_seconds", "state", "packet_in_rate_pps", "migration_rate_pps",
		"cache_backlog", "replayed", "degraded_drops", "goodput_share", "switch_packet_ins",
	}); err != nil {
		return err
	}
	for _, r := range windows {
		if err := cw.Write([]string{
			strconv.FormatFloat(r.At.Seconds(), 'f', 3, 64),
			r.State,
			strconv.FormatFloat(r.PacketInRatePPS, 'f', 2, 64),
			strconv.FormatFloat(r.MigrationRatePPS, 'f', 2, 64),
			strconv.Itoa(r.CacheBacklog),
			strconv.FormatUint(r.Replayed, 10),
			strconv.FormatUint(r.DegradedDrops, 10),
			strconv.FormatFloat(r.GoodputShare, 'f', 4, 64),
			strconv.FormatUint(r.SwitchPacketIns, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
