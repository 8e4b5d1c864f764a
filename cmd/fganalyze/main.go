// Command fganalyze runs the proactive flow rule analyzer over the
// bundled controller applications and prints, per application:
//
//   - the paths found by offline symbolic execution (Algorithm 1) with
//     their path conditions and terminal decisions,
//   - the state-sensitive variables the handler reads (Table III), and
//   - the proactive flow rules derived from a sample state (Algorithm 2).
//
// Usage:
//
//	fganalyze [app ...]
//	fganalyze journal [-port N] [-kind k1,k2] [-windows a:b] [-explain port=N] <dump.jsonl>
//
// With no arguments every bundled application is analyzed. The journal
// subcommand queries a flight-recorder dump produced by
// `fgsim -journal <path> soak`: filter the total-ordered event
// timeline, or reconstruct one port's evidence chain with -explain.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/journal"
	"floodguard/internal/netpkt"
	"floodguard/internal/symexec"
)

type subject struct {
	prog  *appir.Program
	state *appir.State
}

func buildSubjects() map[string]subject {
	out := make(map[string]subject)
	add := func(prog *appir.Program, st *appir.State) { out[prog.Name] = subject{prog, st} }

	prog, st := apps.L2Learning()
	st.Learn("macToPort", appir.MACValue(netpkt.MustMAC("00:00:00:00:00:0a")), appir.U16Value(1))
	st.Learn("macToPort", appir.MACValue(netpkt.MustMAC("00:00:00:00:00:0b")), appir.U16Value(2))
	add(prog, st)

	add(apps.ARPHub())
	add(apps.IPBalancer())

	prog, st = apps.L3Learning()
	st.Learn("ipToPort", appir.IPValue(netpkt.MustIPv4("10.0.0.1")), appir.U16Value(1))
	st.Learn("ipToPort", appir.IPValue(netpkt.MustIPv4("10.0.0.2")), appir.U16Value(2))
	add(prog, st)

	prog, st = apps.OFFirewall()
	st.Learn("blockedTCPPorts", appir.U16Value(23), appir.BoolValue(true))
	st.AddPrefix("blockedSrcNets", appir.IPValue(netpkt.MustIPv4("203.0.113.0")), 24, appir.BoolValue(true))
	st.AddPrefix("routeTable", appir.IPValue(netpkt.MustIPv4("10.0.0.0")), 8, appir.U16Value(4))
	add(prog, st)

	prog, st = apps.MACBlocker()
	st.Learn("blockedMACs", appir.MACValue(netpkt.MustMAC("00:00:00:00:00:66")), appir.BoolValue(true))
	add(prog, st)

	prog, st = apps.Route()
	st.AddPrefix("routingTable", appir.IPValue(netpkt.MustIPv4("10.0.0.0")), 8, appir.U16Value(1))
	st.AddPrefix("routingTable", appir.IPValue(netpkt.MustIPv4("10.1.0.0")), 16, appir.U16Value(2))
	add(prog, st)
	return out
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fganalyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "journal" {
		return runJournal(args[1:])
	}
	subjects := buildSubjects()
	names := args
	if len(names) == 0 {
		names = []string{"l2_learning", "arp_hub", "ip_balancer", "l3_learning", "of_firewall", "mac_blocker", "route"}
	}
	for _, name := range names {
		sub, ok := subjects[name]
		if !ok {
			return fmt.Errorf("unknown application %q", name)
		}
		if err := analyze(sub); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
	}
	return nil
}

// runJournal implements the journal subcommand: load a JSONL
// flight-recorder dump and either print the (filtered) total-ordered
// timeline or explain one port's evidence chain.
func runJournal(args []string) error {
	fs := flag.NewFlagSet("journal", flag.ContinueOnError)
	port := fs.Int("port", -1, "only events touching this port")
	kinds := fs.String("kind", "", "comma-separated kind filter (e.g. blame,heal,slo)")
	windows := fs.String("windows", "", "inclusive window range a:b")
	explain := fs.String("explain", "", "port=N: print the evidence chain for port N")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fganalyze journal [-port N] [-kind k1,k2] [-windows a:b] [-explain port=N] <dump.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("journal: want exactly one dump path (or - for stdin)")
	}

	var r io.Reader = os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	d, err := journal.ReadDump(r)
	if err != nil {
		return err
	}
	fmt.Printf("journal: seed=%#x shards=%d windows=%d trigger=%s dropped=%d events=%d violations=%d\n",
		d.Meta.Seed, d.Meta.Shards, d.Meta.Windows, d.Meta.Trigger, d.Meta.Dropped, len(d.Events), len(d.Violations))

	if *explain != "" {
		var p int
		if _, err := fmt.Sscanf(*explain, "port=%d", &p); err != nil || p < 0 || p > 0xFFFF {
			return fmt.Errorf("journal: bad -explain %q (want port=N)", *explain)
		}
		return journal.Explain(os.Stdout, d, uint16(p))
	}

	kindSet := make(map[journal.Kind]bool)
	if *kinds != "" {
		for _, s := range strings.Split(*kinds, ",") {
			k, ok := journal.ParseKind(strings.TrimSpace(s))
			if !ok {
				return fmt.Errorf("journal: unknown kind %q", s)
			}
			kindSet[k] = true
		}
	}
	lo, hi := 0, int(^uint(0)>>1)
	if *windows != "" {
		if _, err := fmt.Sscanf(*windows, "%d:%d", &lo, &hi); err != nil {
			return fmt.Errorf("journal: bad -windows %q (want a:b)", *windows)
		}
	}
	for _, ev := range d.Events {
		if *port >= 0 && int(ev.Port) != *port {
			continue
		}
		if len(kindSet) > 0 && !kindSet[ev.Kind] {
			continue
		}
		if int(ev.Window) < lo || int(ev.Window) > hi {
			continue
		}
		fmt.Println(journal.FormatEvent(ev))
	}
	for _, v := range d.Violations {
		if v.Window < lo || v.Window > hi {
			continue
		}
		fmt.Printf("w%-4d [violation] %s: %s\n", v.Window, v.Invariant, v.Detail)
	}
	return nil
}

func analyze(sub subject) error {
	fmt.Printf("=== %s ===\n", sub.prog.Name)

	paths, err := symexec.Explore(sub.prog)
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 1 — %d path condition(s):\n", len(paths))
	for _, p := range paths {
		fmt.Printf("  %s\n", p.String())
	}

	vars := symexec.StateSensitiveVariables(paths)
	fmt.Printf("state-sensitive variables (Table III): ")
	if len(vars) == 0 {
		fmt.Println("(none — static policies only)")
	} else {
		for i, v := range vars {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(v)
			if decl, ok := sub.prog.GlobalByName(v); ok && decl.Description != "" {
				fmt.Printf(" [%s]", decl.Description)
			}
		}
		fmt.Println()
	}

	rules, err := symexec.DeriveRules(paths, sub.state)
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 2 — %d proactive flow rule(s) from the sample state:\n", len(rules))
	for _, r := range rules {
		fmt.Printf("  [path %d] %s\n", r.PathID, r.Rule.String())
	}
	return nil
}
