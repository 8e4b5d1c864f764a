package faultinject

import "testing"

func TestInjectorIsDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 42, DropProb: 0.2, DelayProb: 0.1, TruncateProb: 0.1,
		ErrorProb: 0.1, DisconnectProb: 0.05,
	}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 10000; i++ {
		da, db := a.Decide(64), b.Decide(64)
		if da != db {
			t.Fatalf("op %d diverged: %+v vs %+v", i, da, db)
		}
	}
	for f := FaultNone; f < numFaults; f++ {
		if a.Count(f) != b.Count(f) {
			t.Fatalf("count(%v) diverged: %d vs %d", f, a.Count(f), b.Count(f))
		}
	}
}

func TestInjectorEveryNSchedulesAreExact(t *testing.T) {
	in := New(Config{Seed: 1, DisconnectEvery: 50, DropEvery: 7})
	for i := uint64(1); i <= 700; i++ {
		d := in.Decide(0)
		switch {
		case i%50 == 0:
			if d.Fault != FaultDisconnect {
				t.Fatalf("op %d: fault = %v, want disconnect", i, d.Fault)
			}
		case i%7 == 0:
			if d.Fault != FaultDrop {
				t.Fatalf("op %d: fault = %v, want drop", i, d.Fault)
			}
		default:
			if d.Fault != FaultNone {
				t.Fatalf("op %d: fault = %v, want none", i, d.Fault)
			}
		}
	}
	if got := in.Count(FaultDisconnect); got != 14 {
		t.Errorf("disconnects = %d, want 14", got)
	}
}

func TestInjectorZeroConfigNeverFaults(t *testing.T) {
	in := New(Config{Seed: 9})
	for i := 0; i < 1000; i++ {
		if d := in.Decide(100); d.Fault != FaultNone {
			t.Fatalf("op %d faulted: %+v", i, d)
		}
	}
}

func TestFaultStrings(t *testing.T) {
	want := map[Fault]string{
		FaultNone: "none", FaultDrop: "drop", FaultDelay: "delay",
		FaultTruncate: "truncate", FaultError: "error", FaultDisconnect: "disconnect",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), s)
		}
	}
}
