package core

import (
	"context"
	"errors"
	"testing"

	"smtdram/internal/obs"
	"smtdram/internal/runner"
)

// A pre-cancelled context aborts the run at the first watchdog boundary with
// the context's own error, and the simulator closes out cleanly.
func TestRunContextCancelled(t *testing.T) {
	cfg := DefaultConfig("mcf")
	cfg.WarmupInstr, cfg.TargetInstr = 5_000, 50_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %+v, %v; want context.Canceled", res, err)
	}
}

// Cancellation through the pool: a cancelled job's future resolves to
// context.Canceled and the pool keeps serving later jobs (not poisoned).
func TestCancelledJobThroughPool(t *testing.T) {
	pool := runner.New(2)
	cfg := DefaultConfig("mcf")
	cfg.WarmupInstr, cfg.TargetInstr = 5_000, 20_000

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fut := runner.SubmitNamedCtx(pool, ctx, cfg.Fingerprint(), func(ctx context.Context) (Result, error) {
		return RunContext(ctx, cfg)
	})
	if _, err := fut.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pooled run = %v, want context.Canceled", err)
	}

	ok := runner.SubmitNamedCtx(pool, context.Background(), cfg.Fingerprint(), func(ctx context.Context) (Result, error) {
		return RunContext(ctx, cfg)
	})
	res, err := ok.Wait()
	if err != nil {
		t.Fatalf("post-cancel run failed: %v", err)
	}
	if res.IPC[0] <= 0 {
		t.Fatalf("post-cancel run produced no progress: %+v", res)
	}
}

// A run cancelled mid-flight (from a progress hook, i.e. on the run
// goroutine) stops promptly and still reports skip/observer close-out.
func TestRunContextCancelledMidRun(t *testing.T) {
	cfg := DefaultConfig("mcf")
	cfg.WarmupInstr, cfg.TargetInstr = 50_000, 200_000
	ctx, cancel := context.WithCancel(context.Background())
	ob := &obs.Observer{ProgressInterval: 2_000}
	var fired int
	ob.Progress = func(now uint64) {
		fired++
		if now > 10_000 {
			cancel()
		}
	}
	cfg.Observe = func() *obs.Observer { return ob }
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel = %v, want context.Canceled", err)
	}
	if fired == 0 {
		t.Fatal("progress hook never fired")
	}
	if ob.FinalCycle == 0 {
		t.Fatal("observer was not finished on cancellation")
	}
	// The progress snapshot works and reports a consistent machine.
	p := s.Progress(ob.FinalCycle)
	if p.Cycle != ob.FinalCycle || p.Committed == 0 || p.TargetTotal != 250_000 {
		t.Fatalf("progress snapshot inconsistent: %+v", p)
	}
}

// Cancellation lands within 1024 cycles plus the longest quiet span: the
// context is checked at the first landing on or past each 1024-cycle
// boundary, so a skipping run cannot step over check points. A progress hook
// firing at every landing cancels past cycle 150 000; the serialized machine
// skips deepest, so its spans step over the most boundaries.
func TestRunContextCancelLagBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"default-machine", func() Config { return fastCfg("mcf", "mcf", "mcf", "mcf") }},
		{"serialized-fetchstall", ckptConfigs()[1].cfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.WarmupInstr, cfg.TargetInstr = 60_000, 40_000
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var at uint64
			ob := &obs.Observer{ProgressInterval: 1, Progress: func(now uint64) {
				if at == 0 && now >= 150_000 {
					at = now
					cancel()
				}
			}}
			cfg.Observe = func() *obs.Observer { return ob }
			s, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v, want context.Canceled", err)
			}
			lag, bound := ob.FinalCycle-at, 1024+s.SkipStats().Longest
			if lag > bound {
				t.Fatalf("cancelled at cycle %d, stopped at %d: %d cycles late, bound %d",
					at, ob.FinalCycle, lag, bound)
			}
		})
	}
}
