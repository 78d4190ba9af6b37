package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/figures"
	"smtdram/internal/store"
	"smtdram/internal/workload"
)

// sweep-warm: re-invoking `experiments -checkpoint-dir` on a directory a
// previous invocation filled. Set-up is that cold fill, done three times and
// timed in wall time. The heavy operation
// opens a fresh store-backed checkpoint cache on the directory and runs a
// Figure 6 sweep, so every warmup prefix is read from the store and restored;
// the light operation re-runs the sweep on the last heavy operation's cache,
// whose checkpoints are already in memory (what a long-lived process pays).

// sweepOptions is the sweep every operation runs: Figure 6 at nproc-way
// parallelism with fresh alone-IPC baselines, so every point simulates.
func sweepOptions(seed int64, ck *checkpoint.Cache) figures.Options {
	return figures.Options{
		Warmup: sweepWarmup, Target: sweepTarget, Seed: seed,
		Jobs: runtime.NumCPU(), Baselines: map[string]float64{},
		Checkpoints: ck,
	}
}

// sweepPrefixes lists one configuration per warmup prefix the sweep
// checkpoints, built the way figures.Fig6 builds them: every Table 2 mix on
// 2, 4 and 8 channels, and each application alone on the reference machine.
func sweepPrefixes() []core.Config {
	base := func(apps ...string) core.Config {
		cfg := core.DefaultConfig(apps...)
		cfg.WarmupInstr, cfg.TargetInstr, cfg.Seed = sweepWarmup, sweepTarget, sweepSeed
		return cfg
	}
	var out []core.Config
	seen := map[string]bool{}
	add := func(cfg core.Config) {
		if fp := cfg.WarmupFingerprint(); !seen[fp] {
			seen[fp] = true
			out = append(out, cfg)
		}
	}
	for _, m := range workload.Mixes() {
		for _, ch := range []int{2, 4, 8} {
			cfg := base(m.Apps...)
			cfg.Mem.PhysChannels = ch
			add(cfg)
		}
		for _, app := range m.Apps {
			add(base(app))
		}
	}
	return out
}

// sweepOp runs one sweep on ck and checks its rows and that it simulated no
// warmup.
func sweepOp(e *env, ck *checkpoint.Cache) error {
	before := ck.Snapshot()
	rows, err := figures.Fig6(sweepOptions(sweepSeed, ck))
	if err != nil {
		return err
	}
	if err := e.golden.checkSweep(sweepSeed, rows); err != nil {
		return err
	}
	if misses := ck.Snapshot().Misses - before.Misses; misses != 0 {
		return fmt.Errorf("warm sweep simulated %d warmups, want 0", misses)
	}
	return nil
}

func runSweepWarm(e *env) (*outcome, error) {
	o := newOutcome()
	want := e.golden.Sweep[fmt.Sprint(sweepSeed)].Checkpoints
	var dir string
	for i := 0; i < 3; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(e.work, fmt.Sprintf("ckpt-%d", i))
		t := time.Now()
		ck, err := checkpoint.Open(dir, store.FsyncOff)
		if err != nil {
			return nil, err
		}
		rows, err := figures.Fig6(sweepOptions(sweepSeed, ck))
		o.setup = append(o.setup, time.Since(t).Seconds())
		if err != nil {
			return nil, fmt.Errorf("cold fill: %w", err)
		}
		o.attempted++
		if err := e.golden.checkSweep(sweepSeed, rows); err != nil {
			o.fail(err)
		} else if got := ck.Snapshot().Misses; got != want {
			o.fail(fmt.Errorf("cold fill captured %d checkpoints, want %d", got, want))
		}
	}

	// runs holds each operation's wall and CPU milliseconds under "light" and
	// "heavy", and the traced twins under "light+traced" and "heavy+traced".
	runs := map[string][][2]float64{}
	layer := map[string]*layerTimes{"light": newLayerTimes(), "heavy": newLayerTimes()}
	var last *checkpoint.Cache
	// measure runs one checked operation, or records its failure. A heavy
	// operation's time includes opening the cache; its cache becomes the
	// next light operation's.
	measure := func(kind string, traced bool) {
		o.attempted++
		runtime.GC() // every sweep starts from a collected heap
		var p profiler
		if traced {
			if err := p.start(); err != nil {
				o.fail(err)
				return
			}
		}
		t, c0 := time.Now(), cpuTime()
		ck := last
		var err error
		if kind == "heavy" {
			ck, err = checkpoint.Open(dir, store.FsyncOff)
		} else if ck == nil {
			err = fmt.Errorf("no warm cache: every heavy operation so far failed")
		}
		var hits uint64
		if err == nil {
			before := ck.Snapshot().Hits
			err = sweepOp(e, ck)
			hits = ck.Snapshot().Hits - before
		}
		sample := [2]float64{ms(time.Since(t)), ms(cpuTime() - c0)}
		if traced {
			if perr := p.stop(layer[kind]); perr != nil && err == nil {
				err = perr
			}
		}
		if err == nil && kind == "heavy" && hits != want {
			err = fmt.Errorf("warm sweep read %d checkpoints back, want %d", hits, want)
		}
		if err != nil {
			o.fail(err)
			return
		}
		if kind == "heavy" {
			last = ck
		}
		if traced {
			kind += "+traced"
		}
		runs[kind] = append(runs[kind], sample)
	}
	deadline := time.Now().Add(e.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		kind := []string{"heavy", "light"}[i%2]
		measure(kind, false)
		if e.trace {
			measure(kind, true)
		}
	}
	// med is the median of one column (0 wall, 1 CPU) of one kind's runs.
	med := func(kind string, col int) float64 {
		var xs []float64
		for _, r := range runs[kind] {
			xs = append(xs, r[col])
		}
		return median(xs)
	}

	o.light, o.heavy = med("light", 1), med("heavy", 1)
	o.units["light_ms"], o.units["heavy_ms"] = "CPU ms/sweep", "CPU ms/sweep"
	o.samples["light_ms"], o.samples["heavy_ms"] = len(runs["light"]), len(runs["heavy"])
	o.detail["sweep_s"] = med("heavy", 0) / 1e3
	o.detail["sweep_s.in_memory"] = med("light", 0) / 1e3
	o.detail["checkpoints"] = float64(want)

	if e.trace {
		o.layer["trace.overhead"] = (med("light+traced", 0)+med("heavy+traced", 0))/(med("light", 0)+med("heavy", 0)) - 1
		for kind, lt := range layer {
			o.addProfile(kind, lt, float64(len(runs[kind+"+traced"])))
		}
		if err := sweepLayers(dir, want, o); err != nil {
			o.attempted++
			o.fail(err)
		}
	}
	return o, nil
}

// sweepLayers walks one sweep's warmup prefixes through the layers a warm
// sweep crosses, one call at a time, on a freshly opened cache: the
// checkpoint lookup (store read plus trial restore), the raw store read, the
// snapshot restore into a new machine, and the measurement phase.
func sweepLayers(dir string, want uint64, o *outcome) error {
	prefixes := sweepPrefixes()
	if uint64(len(prefixes)) != want {
		return fmt.Errorf("%d warmup prefixes listed, the sweep checkpoints %d", len(prefixes), want)
	}
	ck, err := checkpoint.Open(dir, store.FsyncOff)
	if err != nil {
		return err
	}
	st := ck.Store()
	var bytesRead int
	ctx := context.Background()
	for _, cfg := range prefixes {
		t := time.Now()
		chk, err := ck.Get(ctx, cfg)
		if err != nil {
			return err
		}
		o.layer["checkpoint.get_s"] += time.Since(t).Seconds()

		// The checkpoint layer namespaces its store keys with "ckpt|".
		t = time.Now()
		payload, meta, err := st.Get("ckpt|" + chk.Prefix)
		if err != nil {
			return fmt.Errorf("store read of %s: %w", chk.Prefix, err)
		}
		o.layer["store.get_s"] += time.Since(t).Seconds()
		bytesRead += len(payload) + len(meta)

		t = time.Now()
		sim, err := core.NewCheckpointedSimulator(cfg, chk)
		if err != nil {
			return err
		}
		o.layer["snap.restore_s"] += time.Since(t).Seconds()

		t = time.Now()
		if _, err := sim.Run(); err != nil {
			return err
		}
		o.layer["core.measure_s"] += time.Since(t).Seconds()
	}
	s := ck.Snapshot()
	if s.Misses != 0 {
		return fmt.Errorf("%d of the sweep's prefixes were not in the store", s.Misses)
	}
	o.layer["checkpoint.hits"] = float64(s.Hits)
	o.layer["checkpoint.misses"] = float64(s.Misses)
	if s.Hits+s.Misses > 0 {
		o.layer["checkpoint.hit_ratio"] = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	o.layer["store.bytes_read"] = float64(bytesRead)
	return nil
}
