package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"ipcp/internal/experiments"
)

// experimentsDriver times the four ways a Session answers a run without
// simulating it from scratch: the in-memory memo, the disk checkpoint,
// the checkpoint write itself, and a measure phase forked from a
// resident warmup snapshot.
func experimentsDriver(b *bench) error {
	scale := experiments.Scale{Warmup: uint64(b.scale(20_000)), Measure: uint64(b.scale(20_000)), Seed: 1}
	spec := func(seed int64) experiments.RunSpec {
		return experiments.RunSpec{Workloads: []string{"lbm-94"}, L1D: "ipcp", L2: "ipcp", Seed: seed}
	}

	// Memo hit: the same spec again on one session.
	s := experiments.NewSession(scale)
	if _, err := s.Run(spec(1)); err != nil {
		return err
	}
	var runErr error
	ns := perCall(b.slice(4), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Run(spec(1)); err != nil {
				runErr = err
			}
		}
	})
	if runErr != nil {
		return runErr
	}
	b.report("experiments.memo_hit_us", ns/1000)

	// Checkpoint save: what -cache-dir adds to a run that has to
	// simulate. Distinct seeds keep every run cold; the plain and the
	// checkpointing session alternate so host drift cancels.
	dir := filepath.Join(b.dir, "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	plain, saving := experiments.NewSession(scale), experiments.NewSession(scale)
	if err := saving.SetCacheDir(dir); err != nil {
		return err
	}
	var plainMS, savingMS []float64
	start := time.Now()
	for seed := int64(100); len(plainMS) < 5 || time.Since(start) < b.slice(4); seed++ {
		for _, side := range []struct {
			s  *experiments.Session
			ms *[]float64
		}{{plain, &plainMS}, {saving, &savingMS}} {
			t := time.Now()
			if _, err := side.s.Run(spec(seed)); err != nil {
				return err
			}
			*side.ms = append(*side.ms, time.Since(t).Seconds()*1000)
		}
	}
	sort.Float64s(plainMS)
	sort.Float64s(savingMS)
	b.report("experiments.ckpt_save_ms", savingMS[len(savingMS)/2]-plainMS[len(plainMS)/2])

	// Disk hit: a new session (empty memo) over the directory the
	// previous step filled, asked for a run that is checkpointed there.
	seeds := int64(len(savingMS))
	next := int64(0)
	ms, err := perOp(b.slice(4), func() (time.Duration, error) {
		fresh := experiments.NewSession(scale)
		if err := fresh.SetCacheDir(dir); err != nil {
			return 0, err
		}
		seed := 100 + next%seeds
		next++
		t := time.Now()
		_, err := fresh.Run(spec(seed))
		return time.Since(t), err
	})
	if err != nil {
		return err
	}
	b.report("experiments.disk_hit_ms", ms)

	// Forked measure: one warmup snapshot stays resident; every other
	// prefetcher configuration of the same trace forks from it.
	shared := experiments.NewSession(scale)
	if _, err := shared.RunShared(spec(7)); err != nil {
		return err
	}
	var forks []float64
	for _, l1 := range []string{"", "nl", "ipstride", "stream", "bop", "spp", "mlop", "bingo", "vldp", "sms"} {
		for _, l2 := range []string{"", "ipcp"} {
			sp := spec(7)
			if sp.L1D, sp.L2 = l1, l2; l1 == "ipcp" && l2 == "ipcp" {
				continue
			}
			t := time.Now()
			if _, err := shared.RunShared(sp); err != nil {
				return err
			}
			forks = append(forks, time.Since(t).Seconds()*1000)
		}
	}
	sort.Float64s(forks)
	b.report("experiments.fork_measure_ms", forks[len(forks)/2])
	return nil
}
