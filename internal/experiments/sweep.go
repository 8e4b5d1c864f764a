package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"

	"floodguard/internal/switchsim"
)

// SweepConfig describes a sharded bandwidth sweep: the cross product of
// profiles × seeds × attack rates, each point measured with and without
// FloodGuard. Shards controls how many worker goroutines split the job
// list; every testbed is self-contained (own engine, own seed), so the
// merged result is identical at any shard count.
type SweepConfig struct {
	Profiles []switchsim.Profile
	Rates    []float64
	Seeds    []int64
	Shards   int // <= 0 means 1
}

// DefaultSweep is the stock multi-seed sweep: the software environment
// over the Figure 10 rates with three attack realizations.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Profiles: []switchsim.Profile{switchsim.SoftwareProfile()},
		Rates:    Fig10Rates,
		Seeds:    []int64{7, 21, 1337},
		Shards:   1,
	}
}

// SweepJob is one unit of sweep work: a (profile, seed, rate) cell,
// measured baseline-then-guarded inside the job so a row never splits
// across shards.
type SweepJob struct {
	Index     int
	Profile   switchsim.Profile
	Seed      int64
	AttackPPS float64
}

// SweepPoint is one finished cell.
type SweepPoint struct {
	Profile        string
	Seed           int64
	AttackPPS      float64
	BaselineBits   float64
	FloodGuardBits float64
}

// SweepResult holds the merged sweep in job order.
type SweepResult struct {
	Points []SweepPoint
}

// Jobs enumerates the sweep deterministically: profiles outermost, then
// seeds, then rates. Index is the job's position in this canonical
// order and is what the merge keys on.
func (c SweepConfig) Jobs() []SweepJob {
	jobs := make([]SweepJob, 0, len(c.Profiles)*len(c.Seeds)*len(c.Rates))
	for _, p := range c.Profiles {
		for _, s := range c.Seeds {
			for _, r := range c.Rates {
				jobs = append(jobs, SweepJob{Index: len(jobs), Profile: p, Seed: s, AttackPPS: r})
			}
		}
	}
	return jobs
}

// RunSweep executes the sweep across cfg.Shards workers. Jobs are dealt
// round-robin (job i → shard i%N); each result lands at its job index,
// so the merged Points slice — and any CSV written from it — is
// byte-identical whether the sweep ran on one shard or sixteen. On
// error the first failure in job order is reported.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	jobs := cfg.Jobs()
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	if shards > len(jobs) && len(jobs) > 0 {
		shards = len(jobs)
	}
	points := make([]SweepPoint, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := shard; i < len(jobs); i += shards {
				points[i], errs[i] = runSweepJob(jobs[i])
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &SweepResult{Points: points}, nil
}

func runSweepJob(j SweepJob) (SweepPoint, error) {
	base, err := MeasureBandwidth(j.Profile, false, j.AttackPPS, j.Seed)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("sweep job %d (%s seed %d @ %.0f pps, baseline): %w",
			j.Index, j.Profile.Name, j.Seed, j.AttackPPS, err)
	}
	guarded, err := MeasureBandwidth(j.Profile, true, j.AttackPPS, j.Seed)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("sweep job %d (%s seed %d @ %.0f pps, guarded): %w",
			j.Index, j.Profile.Name, j.Seed, j.AttackPPS, err)
	}
	return SweepPoint{
		Profile:        j.Profile.Name,
		Seed:           j.Seed,
		AttackPPS:      j.AttackPPS,
		BaselineBits:   base,
		FloodGuardBits: guarded,
	}, nil
}

// WriteCSV emits the merged sweep, one row per (profile, seed, rate).
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"profile", "seed", "attack_pps", "openflow_bps", "floodguard_bps"}); err != nil {
		return err
	}
	for _, p := range r.Points {
		if err := cw.Write([]string{
			p.Profile,
			strconv.FormatInt(p.Seed, 10),
			strconv.FormatFloat(p.AttackPPS, 'f', 0, 64),
			strconv.FormatFloat(p.BaselineBits, 'f', 0, 64),
			strconv.FormatFloat(p.FloodGuardBits, 'f', 0, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Print renders the sweep as a per-seed table.
func (r *SweepResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Bandwidth sweep: profiles × seeds × attack rates")
	fmt.Fprintf(w, "%-10s %-8s %-12s %22s %22s\n", "profile", "seed", "attack(PPS)", "OpenFlow", "OpenFlow + FloodGuard")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %-8d %-12.0f %22s %22s\n",
			p.Profile, p.Seed, p.AttackPPS, humanBits(p.BaselineBits), humanBits(p.FloodGuardBits))
	}
}
