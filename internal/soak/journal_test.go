package soak_test

// Flight-recorder contracts: the journal dump is part of the soak's
// deterministic output surface (same seed, byte-identical JSONL), and
// the retained evidence chain for an attacked port must reconstruct
// the full suspect -> blame -> migrate -> heal -> unmigrate story that
// the run actually executed.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"floodguard/internal/journal"
	"floodguard/internal/soak"
)

func runJournal(t *testing.T, cfg soak.Config) []byte {
	t.Helper()
	res, err := soak.Run(cfg)
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	if len(res.JournalDump) == 0 {
		t.Fatalf("Journal=true produced no dump")
	}
	return res.JournalDump
}

func TestJournalDumpSeededDeterminism(t *testing.T) {
	cfg := soak.Config{
		Seed:      0xD37E12,
		Duration:  2 * time.Second,
		Window:    100 * time.Millisecond,
		Flows:     20_000,
		HotFlows:  128,
		Ports:     8,
		Shards:    4, // one recorder per shard, all in the dump
		Profile:   soak.ProfileAll,
		BenignPPS: 20_000,
		Chaos:     true,
		Journal:   true,
	}
	a := runJournal(t, cfg)
	b := runJournal(t, cfg)
	if !bytes.Equal(a, b) {
		line := 1
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				break
			}
			if a[i] == '\n' {
				line++
			}
		}
		t.Fatalf("same-seed journal dumps diverged (first difference near line %d)\nrun1 %d bytes, run2 %d bytes", line, len(a), len(b))
	}
	if len(bytes.Split(a, []byte("\n"))) < 20 {
		t.Fatalf("degenerate dump: %q", a)
	}
}

// TestJournalExplainChain drives a single rotating attacker (which
// stops at 60% of the run, so it heals before the end) and asserts the
// dumped evidence chain for its port is causally ordered.
func TestJournalExplainChain(t *testing.T) {
	cfg := soak.Config{
		Seed:      0xF0CA1,
		Duration:  3 * time.Second,
		Window:    100 * time.Millisecond,
		Flows:     10_000,
		HotFlows:  64,
		Ports:     4,
		Shards:    2,
		Profile:   soak.ProfileRotate,
		BenignPPS: 10_000,
		Journal:   true,
	}
	raw := runJournal(t, cfg)
	d, err := journal.ReadDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if d.Meta.Seed != int64(cfg.Seed) || d.Meta.Shards != cfg.Shards {
		t.Fatalf("meta mismatch: %+v", d.Meta)
	}

	const atkPort = 5 // Ports + 1
	first := func(k journal.Kind) int {
		for _, ev := range d.Events {
			if ev.Port == atkPort && ev.Kind == k {
				return int(ev.Window)
			}
		}
		return -1
	}
	suspect := first(journal.KindSuspect)
	blame := first(journal.KindBlame)
	migrate := first(journal.KindMigrate)
	heal := first(journal.KindHeal)
	unmigrate := first(journal.KindUnmigrate)
	if blame < 0 || migrate < 0 || heal < 0 || unmigrate < 0 {
		t.Fatalf("incomplete chain for port %d: suspect=%d blame=%d migrate=%d heal=%d unmigrate=%d",
			atkPort, suspect, blame, migrate, heal, unmigrate)
	}
	if suspect >= 0 && suspect > blame {
		t.Fatalf("suspect window %d after blame window %d", suspect, blame)
	}
	if !(blame <= migrate && migrate < heal && heal <= unmigrate) {
		t.Fatalf("chain out of order: blame=%d migrate=%d heal=%d unmigrate=%d", blame, migrate, heal, unmigrate)
	}

	var sb strings.Builder
	if err := journal.Explain(&sb, d, atkPort); err != nil {
		t.Fatalf("Explain: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"blame", "heal", "migrate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}
