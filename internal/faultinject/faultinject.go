// Package faultinject provides a deterministic, seedable fault stream
// for chaos-testing FloodGuard.
//
// An Injector decides, per operation, whether to inject one of five
// faults — drop, delay, truncate, error, disconnect — from a seeded RNG
// plus optional deterministic every-N schedules, so a chaos run
// reproduces exactly from its seed. The caller maps each decision onto
// its own channel: the soak turns disconnects into replay outage windows
// and drops into rule-churn windows.
//
// The package is test/chaos infrastructure: production paths never
// import it.
package faultinject

import (
	"math/rand"
	"sync"
	"time"
)

// Fault enumerates the injectable failure modes.
type Fault int

// Fault kinds. FaultNone means the operation proceeds untouched.
const (
	FaultNone Fault = iota
	// FaultDrop silently discards the operation.
	FaultDrop
	// FaultDelay stalls the operation before performing it.
	FaultDelay
	// FaultTruncate performs only a prefix of a write (Decision.KeepBytes),
	// then reports an error — the receiver sees a torn frame.
	FaultTruncate
	// FaultError fails the operation without touching the underlying
	// channel.
	FaultError
	// FaultDisconnect closes the underlying channel and fails the
	// operation — both ends observe a dead peer.
	FaultDisconnect
	numFaults
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultTruncate:
		return "truncate"
	case FaultError:
		return "error"
	case FaultDisconnect:
		return "disconnect"
	default:
		return "fault(?)"
	}
}

// Config parameterises an Injector. Probabilities are per operation in
// [0, 1] and are evaluated in the order drop, delay, truncate, error,
// disconnect (first match wins). EveryN schedules fire deterministically
// on every Nth operation and take precedence over the probabilistic
// draws, so "disconnect every 50th operation" reproduces exactly
// regardless of the other knobs.
type Config struct {
	// Seed fixes the RNG; runs with equal seeds and operation sequences
	// decide identically.
	Seed int64

	DropProb       float64
	DelayProb      float64
	TruncateProb   float64
	ErrorProb      float64
	DisconnectProb float64

	// DisconnectEvery, when > 0, injects FaultDisconnect on every Nth
	// operation (1-based: operation N, 2N, ...).
	DisconnectEvery uint64
	// DropEvery, when > 0, injects FaultDrop on every Nth operation.
	DropEvery uint64

	// MaxDelay bounds FaultDelay stalls (uniform in (0, MaxDelay];
	// zero defaults to 5ms).
	MaxDelay time.Duration
}

// Decision is one resolved fault draw.
type Decision struct {
	Fault Fault
	// Delay is the stall for FaultDelay.
	Delay time.Duration
	// KeepBytes is the prefix length for FaultTruncate.
	KeepBytes int
}

// Injector turns a Config into a deterministic per-operation fault
// stream. It is safe for concurrent use; concurrent callers serialise on
// an internal mutex so the draw sequence stays well-defined (attribute
// interleaving nondeterminism to the caller's scheduling, not the RNG).
type Injector struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	ops    uint64
	counts [numFaults]uint64
}

// New returns an Injector for cfg.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Decide draws the fault for the next operation of size bytes (size may
// be 0 for unsized operations such as reads).
func (in *Injector) Decide(size int) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	d := in.decideLocked(size)
	in.counts[d.Fault]++
	return d
}

func (in *Injector) decideLocked(size int) Decision {
	c := &in.cfg
	if c.DisconnectEvery > 0 && in.ops%c.DisconnectEvery == 0 {
		return Decision{Fault: FaultDisconnect}
	}
	if c.DropEvery > 0 && in.ops%c.DropEvery == 0 {
		return Decision{Fault: FaultDrop}
	}
	// One draw per probabilistic knob keeps the stream reproducible even
	// when probabilities change between runs sharing a seed prefix.
	if p := in.rng.Float64(); p < c.DropProb {
		return Decision{Fault: FaultDrop}
	}
	if p := in.rng.Float64(); p < c.DelayProb {
		return Decision{Fault: FaultDelay, Delay: time.Duration(1 + in.rng.Int63n(int64(c.MaxDelay)))}
	}
	if p := in.rng.Float64(); p < c.TruncateProb {
		keep := 0
		if size > 0 {
			keep = in.rng.Intn(size)
		}
		return Decision{Fault: FaultTruncate, KeepBytes: keep}
	}
	if p := in.rng.Float64(); p < c.ErrorProb {
		return Decision{Fault: FaultError}
	}
	if p := in.rng.Float64(); p < c.DisconnectProb {
		return Decision{Fault: FaultDisconnect}
	}
	return Decision{}
}
