package soak_test

// Seeded determinism is a hard contract of the soak engine: virtual
// time is frozen during a window's ingest and one goroutine runs every
// shard in one order, so two runs with the same seed must produce the
// same per-window numbers. This tier compares the two runs at the
// strictest possible granularity — the rendered CSV bytes, through the
// same writer the `fgsim soak -csv` path uses.

import (
	"bytes"
	"testing"
	"time"

	"floodguard/internal/experiments"
	"floodguard/internal/soak"
)

func runCSV(t *testing.T, cfg soak.Config) []byte {
	t.Helper()
	res, err := soak.Run(cfg)
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteSoakCSV(&buf, res.Windows); err != nil {
		t.Fatalf("WriteSoakCSV: %v", err)
	}
	return buf.Bytes()
}

func TestSoakSeededDeterminism(t *testing.T) {
	cfg := soak.Config{
		Seed:      0xD37E12,
		Duration:  2 * time.Second,
		Window:    100 * time.Millisecond,
		Flows:     20_000,
		HotFlows:  128,
		Ports:     8,
		Shards:    4, // several shards, so per-shard state is in play
		Profile:   soak.ProfileAll,
		BenignPPS: 20_000,
		Chaos:     true,
	}
	a := runCSV(t, cfg)
	b := runCSV(t, cfg)
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
		t.Fatalf("same-seed soak runs diverged (first difference near CSV line %d)\nrun1 %d bytes, run2 %d bytes", line, len(a), len(b))
	}
	if len(bytes.Split(a, []byte("\n"))) < 10 {
		t.Fatalf("degenerate CSV: %q", a)
	}
}

// TestSoakSeedSensitivity is the control for the determinism test: a
// different seed must actually change the output, or the byte-equality
// above would be vacuous (e.g. a generator ignoring its seed).
func TestSoakSeedSensitivity(t *testing.T) {
	cfg := soak.Config{
		Seed:      1,
		Duration:  1 * time.Second,
		Window:    100 * time.Millisecond,
		Flows:     10_000,
		HotFlows:  64,
		Ports:     4,
		Shards:    2,
		Profile:   soak.ProfileRamp,
		BenignPPS: 10_000,
	}
	a := runCSV(t, cfg)
	cfg.Seed = 2
	b := runCSV(t, cfg)
	if bytes.Equal(a, b) {
		t.Fatalf("different seeds produced identical soak output — seed is not wired through")
	}
}
