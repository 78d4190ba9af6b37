package core

import (
	"bytes"
	"context"
	"testing"

	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/faults"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
)

// TestSkipLockstepDeep is the strong oracle for the deep-skip protocol: it
// runs one machine through the real run loop (RunContext, skipping on) and,
// from the loop's per-landing hook, catches a twin up with plain per-cycle
// Ticks, comparing the full observable CPU fingerprint at every landed cycle
// — and, stricter, asserting the twin's fingerprint never moves during a
// cycle the loop skipped. The end-to-end equivalence tests in skip_test.go
// compare final Results; this test pins down *which cycle* a divergence
// first appears at, and is the only one that can catch a multi-cycle
// optimism bug (a probe bound that is too far out) whose damage happens
// mid-window. The one-cycle oracle in the cpu package
// (TestNextWorkAtPredictsQuietCycles) structurally cannot.
//
// The observed variant attaches a loop profiler to both machines and asserts
// the loop's replayed profile (OnCycle on landed cycles, OnEventCycle on
// sailed-through event cycles, OnCycleSkip on quiet gaps) is identical to the
// ticked twin's per-cycle one. The sampled variant attaches a metrics
// registry, so every sample cycle must be a landing (NextBoundary) and the
// two exports must match byte for byte. The seeded-fault variant routes retry
// backoff timers and ECC scrubbing through the span drain, where a deadline
// the controller probe failed to report would surface as a lockstep
// divergence at its exact cycle.
func TestSkipLockstepDeep(t *testing.T) {
	base := func() Config {
		cfg := fastCfg("mcf", "ammp", "swim", "lucas")
		cfg.WarmupInstr = 60_000
		cfg.TargetInstr = 40_000
		return cfg
	}
	serialized := func() Config {
		// The MEMMix benchmark machine: four copies of the most memory-bound
		// app on a ganged close-page FCFS controller with a serialized
		// in-flight window, under the fetch-stall frontend policy. This is
		// the deepest-skipping configuration in the repo, so it exercises
		// the re-probe path (and the FetchStall gate bounds) hardest.
		cfg := fastCfg("mcf", "mcf", "mcf", "mcf")
		cfg.WarmupInstr = 60_000
		cfg.TargetInstr = 40_000
		cfg.Mem.PhysChannels = 4
		cfg.Mem.Gang = 4
		cfg.Mem.PageMode = dram.ClosePage
		cfg.Mem.Policy = memctrl.FCFS
		cfg.Mem.QueueDepth = 8
		cfg.Mem.MaxInFlight = 1
		cfg.CPU.Policy = cpu.FetchStall
		return cfg
	}
	faulty := func() Config {
		// Seeded bit-flip and drop faults arm retry backoff timers whose
		// expiries are in-span events; the controller probe must report them
		// (and the ECC scrub latency bumps) or the twin acts mid-window.
		cfg := faultyCfg(&faults.Plan{BitFlipRate: 5e-2, DropRate: 5e-3, Seed: 11},
			"mcf", "art", "swim", "lucas")
		cfg.WarmupInstr = 60_000
		cfg.TargetInstr = 40_000
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
		opts obs.Options
	}{
		{"default-mix", base, obs.Options{}},
		{"serialized-fetchstall", serialized, obs.Options{}},
		{"seeded-faults", faulty, obs.Options{}},
		{"observed-default-mix", base, obs.Options{Profile: true}},
		{"sampled-default-mix", base, obs.Options{Metrics: true, MetricsInterval: 500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Simulator {
				cfg := tc.cfg()
				if ob := obs.New(tc.opts); ob != nil {
					cfg.Observe = func() *obs.Observer { return ob }
				}
				s, err := NewSimulator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			lockstep(t, mk(), mk())
		})
	}
}

// lockstep runs s through RunContext with skipping on and keeps u, an unrun
// machine of the same configuration, in step with it by plain per-cycle
// Ticks from the loop's per-landing hook. s may be restored from a warmup
// checkpoint: its first landing is then the boundary, and the twin ticks
// plainly up to it before the comparison starts.
func lockstep(t *testing.T, s, u *Simulator) {
	t.Helper()
	sob, uob := s.obs, u.obs
	var uNow uint64
	// The most recent landings, logged on failure so the offending span is
	// visible without re-instrumenting.
	var recent []uint64
	fail := func(f string, a ...any) {
		t.Helper()
		t.Logf("recent landings: %v", recent)
		t.Fatalf(f, a...)
	}
	tick := func() {
		u.cpu.Tick(uNow)
		if uob != nil {
			uob.OnCycle(uNow, u.q.Fired())
		}
	}
	// catchUp ticks the twin to cycle to. With skipped set, every cycle
	// before to was fast-forwarded by s, so the twin must neither act nor
	// take a registry sample there.
	catchUp := func(to uint64, skipped bool) {
		// pre is the twin's state before each Tick. Only an event can move
		// it between Ticks, so it is recomputed only when one fired.
		pre := u.cpu.Fingerprint()
		for uNow < to {
			uNow++
			fired := u.q.Fired()
			u.q.RunUntil(uNow)
			if !skipped || uNow == to {
				tick()
				continue
			}
			if uob != nil && uob.NextBoundary() == uNow {
				fail("sample cycle %d was skipped", uNow)
			}
			if u.q.Fired() != fired {
				pre = u.cpu.Fingerprint()
			}
			tick()
			if post := u.cpu.Fingerprint(); post != pre {
				fail("twin acted at skipped cycle %d\npre:  %+v\npost: %+v", uNow, pre, post)
			}
		}
	}
	first := true
	s.onLand = func(now uint64) {
		catchUp(now, !first)
		first = false
		if recent = append(recent, now); len(recent) > 12 {
			recent = recent[1:]
		}
		if a, b := s.cpu.Fingerprint(), u.cpu.Fingerprint(); a != b {
			fail("diverged at landed cycle %d\nskip: %+v\ntick: %+v", now, a, b)
		}
		// The controller probe's soundness invariant: a non-quiet controller
		// always has a finite next deadline, and that deadline is covered by
		// a pending event — this is what makes the run loop's empty-queue
		// lost-wakeup guard sound.
		if mn, mq := s.ctrl.ProbeQuiet(now); !mq {
			if mn == ^uint64(0) {
				fail("cycle %d: controller non-quiet with no finite deadline", now)
			}
			if _, qok := s.q.NextAt(); !qok {
				fail("cycle %d: controller non-quiet with an empty event queue", now)
			}
		}
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.skip.Skipped == 0 {
		t.Fatal("lockstep run skipped no cycles")
	}

	// A final span may fast-forward to the cycle budget with no landing
	// after it: catch the twin up through it before the closing comparison.
	end := min(s.skip.Wall, s.cfg.maxCycles())
	catchUp(end, true)
	if a, b := s.cpu.Fingerprint(), u.cpu.Fingerprint(); a != b {
		fail("diverged at final cycle %d\nskip: %+v\ntick: %+v", end, a, b)
	}

	if uob == nil {
		return
	}
	uob.Finish(sob.FinalCycle)
	if sob.Prof != nil {
		// The replayed profile must be indistinguishable from the ticked
		// twin's: same cycle count, same events-per-cycle distribution.
		if sc, uc := sob.Prof.Cycles(), uob.Prof.Cycles(); sc != uc {
			t.Fatalf("profiled cycle counts diverge: skip=%d tick=%d", sc, uc)
		}
		if sh, uh := sob.Prof.Hist.String(), uob.Prof.Hist.String(); sh != uh {
			t.Fatalf("events-per-cycle histograms diverge:\nskip: %s\ntick: %s", sh, uh)
		}
		if sob.Prof.Hist.Count() == 0 {
			t.Fatal("observed lockstep profiled nothing")
		}
	}
	if sob.Reg != nil {
		var a, b bytes.Buffer
		if err := sob.Reg.WriteJSONL(&a, "lockstep", sob.FinalCycle); err != nil {
			t.Fatal(err)
		}
		if err := uob.Reg.WriteJSONL(&b, "lockstep", uob.FinalCycle); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("metrics exports diverge between the loop and its ticked twin")
		}
		if cycles, _, _ := sob.Reg.Series("event.pending"); len(cycles) == 0 {
			t.Fatal("sampled lockstep took no samples")
		}
	}
}
