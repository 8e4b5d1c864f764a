// Soak CSV rendering: one row per detection window of a soak run,
// written through the same fixed-format discipline as the other
// experiment CSVs so two runs with the same seed produce byte-identical
// output (the determinism tier compares these bytes directly).
package experiments

import (
	"fmt"
	"io"

	"floodguard/internal/soak"
)

// soakHeader lists the per-window soak columns. Counter columns are
// cumulative since run start.
const soakHeader = "window,sim_ms,fsm,inj_benign,inj_attack,inj_tcp," +
	"processed,forwarded,misses,ring_drops," +
	"enqueued,emitted,dropped_benign,dropped_suspect,backlog,suspect_backlog,max_backlog," +
	"replayed,benign_replayed,attack_replayed,tcp_replayed,benign_loss," +
	"syn_acked,guard_dropped,established,synack_replayed,conn_entries,conn_watermark,tcp_offenders," +
	"blamed_ports,tracked_ports,sample_total,table_rules," +
	"replay_wait_p99_ms,violations,slo"

// WriteSoakCSV emits the per-window soak rows.
func WriteSoakCSV(w io.Writer, rows []soak.WindowStats) error {
	if _, err := fmt.Fprintln(w, soakHeader); err != nil {
		return err
	}
	for i := range rows {
		r := &rows[i]
		if _, err := fmt.Fprintf(w,
			"%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%s\n",
			r.Window, r.SimMillis, r.FSM, r.InjBenign, r.InjAttack, r.InjTCP,
			r.Processed, r.Forwarded, r.Misses, r.RingDrops,
			r.Enqueued, r.Emitted, r.DroppedBenign, r.DroppedSuspect, r.Backlog, r.SuspectBacklog, r.MaxBacklog,
			r.Replayed, r.BenignReplayed, r.AttackReplayed, r.TCPReplayed, r.BenignLoss,
			r.SynAcked, r.GuardDropped, r.Established, r.SynAckReplayed, r.ConnEntries, r.ConnWatermark, r.TCPOffenders,
			r.BlamedPorts, r.TrackedPorts, r.SampleTotal, r.TableRules,
			r.ReplayWaitP99Millis, r.Violations, r.SLO); err != nil {
			return err
		}
	}
	return nil
}
