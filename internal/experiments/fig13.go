package experiments

import (
	"fmt"
	"io"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/core"
	"floodguard/internal/netpkt"
)

// RuleGenCost is one bar of Figure 13: the runtime overhead of generating
// proactive flow rules for an application (Algorithm 2 — the offline
// Algorithm 1 cost is excluded, as in the paper).
type RuleGenCost struct {
	App     string
	Average time.Duration
	Rules   int
	Paths   int
	// OfflineCost is the (amortised, out-of-band) Algorithm 1 cost.
	OfflineCost time.Duration
}

// The state each app carries during the Figure 13 measurement mirrors a
// small operational network; the firewall's multi-table program
// dominates regardless.
const (
	fig13LearnedMACs  = 24
	fig13LearnedIPs   = 24
	fig13BlockedPorts = 16
	fig13BlockedNets  = 12
	fig13Routes       = 48
	fig13BlockedMACs  = 12
)

// Fig13Subjects builds the five evaluation apps with populated state.
func Fig13Subjects() []*controller.App {
	var out []*controller.App
	add := func(prog *appir.Program, st *appir.State) {
		out = append(out, &controller.App{Prog: prog, State: st})
	}

	prog, st := apps.L2Learning()
	for i := 0; i < fig13LearnedMACs; i++ {
		st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(uint64(i+1))), appir.U16Value(uint16(i%8+1)))
	}
	add(prog, st)

	add(apps.IPBalancer())

	prog, st = apps.L3Learning()
	for i := 0; i < fig13LearnedIPs; i++ {
		st.Learn("ipToPort", appir.IPValue(netpkt.IPv4(0x0a000001+uint32(i))), appir.U16Value(uint16(i%8+1)))
	}
	add(prog, st)

	prog, st = apps.OFFirewall()
	PopulateFirewall(st, fig13BlockedPorts, fig13BlockedNets, fig13Routes)
	add(prog, st)

	prog, st = apps.MACBlocker()
	for i := 0; i < fig13BlockedMACs; i++ {
		st.Learn("blockedMACs", appir.MACValue(netpkt.MACFromUint64(uint64(0x600+i))), appir.BoolValue(true))
	}
	add(prog, st)
	return out
}

// RunFig13 measures the average wall-clock cost of deriving proactive
// flow rules per application (Algorithm 2 over live state), over iters
// repetitions.
func RunFig13(iters int) ([]RuleGenCost, error) {
	if iters <= 0 {
		iters = 50
	}
	var out []RuleGenCost
	for _, app := range Fig13Subjects() {
		an, err := core.NewAnalyzer(core.DefaultAnalyzer(), []*controller.App{app})
		if err != nil {
			return nil, err
		}
		offStart := time.Now()
		if err := an.Prepare(); err != nil {
			return nil, err
		}
		offline := time.Since(offStart)

		var rules int
		start := time.Now()
		for i := 0; i < iters; i++ {
			rs, err := an.DeriveAll()
			if err != nil {
				return nil, err
			}
			rules = len(rs)
		}
		out = append(out, RuleGenCost{
			App:         app.Name(),
			Average:     time.Since(start) / time.Duration(iters),
			Rules:       rules,
			Paths:       len(an.Paths(app.Name())),
			OfflineCost: offline,
		})
	}
	return out, nil
}

// PrintFig13 renders the Figure 13 bars.
func PrintFig13(w io.Writer, costs []RuleGenCost) {
	fmt.Fprintln(w, "Figure 13: overhead of generating proactive flow rules (Algorithm 2, runtime)")
	fmt.Fprintf(w, "%-14s %-14s %-8s %-8s %-16s\n", "application", "avg-derive", "rules", "paths", "offline(Alg.1)")
	for _, c := range costs {
		fmt.Fprintf(w, "%-14s %-14s %-8d %-8d %-16s\n",
			c.App, c.Average.Round(time.Microsecond), c.Rules, c.Paths, c.OfflineCost.Round(time.Microsecond))
	}
}

// Table3Row is one row of Table III.
type Table3Row struct {
	App       string
	Variables []string
	Described map[string]string
}

// RunTable3 reproduces Table III: the state-sensitive variables of each
// evaluation application, as discovered by the analyzer.
func RunTable3() ([]Table3Row, error) {
	progs, states := apps.EvaluationSet()
	var rows []Table3Row
	for i, prog := range progs {
		app := &controller.App{Prog: prog, State: states[i]}
		an, err := core.NewAnalyzer(core.DefaultAnalyzer(), []*controller.App{app})
		if err != nil {
			return nil, err
		}
		if err := an.Prepare(); err != nil {
			return nil, err
		}
		row := Table3Row{App: prog.Name, Described: make(map[string]string)}
		row.Variables = an.StateSensitiveReport()[prog.Name]
		for _, v := range row.Variables {
			if decl, ok := prog.GlobalByName(v); ok {
				row.Described[v] = decl.Description
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable3 renders Table III.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table III: state-sensitive variables in applications (discovered by analysis)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s:\n", r.App)
		if len(r.Variables) == 0 {
			fmt.Fprintln(w, "    (none - static policies only)")
		}
		for _, v := range r.Variables {
			fmt.Fprintf(w, "    %-18s %s\n", v, r.Described[v])
		}
	}
}
