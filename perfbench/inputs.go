package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/memctrl"
	"smtdram/internal/server"
	"smtdram/internal/workload"
)

// Every input the benchmark feeds the program is a pure function of the
// -seed argument: the order sim-mix runs its configurations in, the
// Config.Seed each one gets, which serving requests are prefilled and popular
// (the Zipf draws), and the Poisson arrival times. The sweep has no seeded
// input: it is Figure 6 at the repository's default seed, because the sweep's
// cost differs by up to 30% between seeds and would swamp its run-to-run
// spread.

// goldenSeeds are the Config.Seed values the simulated workloads draw from.
// Simulated results depend on Config.Seed, so the goldens hold one entry per
// (configuration, seed) pair; 42 is the repository's default seed, under
// which the serialized 4×mcf machine is pinned at 968233 simcycles.
var goldenSeeds = []int64{42, 7, 2005, 31337}

// Simulation sizes. sim-mix matches bench_test.go's benchCfg; the sweep uses a
// shorter measurement phase so a warm sweep is dominated less by simulation
// and more by the checkpoint/store/snap path it exists to measure.
const (
	simWarmup   = 60_000
	simTarget   = 40_000
	sweepWarmup = 30_000
	sweepTarget = 10_000
	sweepSeed   = 42
)

// The serving pool and its popularity. poolSeeds sizes the pool (see
// makePool). prefillShare and zipfS set how many requests are hits: with them
// a phase keeps meeting first touches to its end, and a run has about 200
// misses beside 800 hits (README.md gives the measured hit share per phase).
// A pool twice as large with half the prefill share gave half again as many
// misses but no steadier miss median, so the smaller pool stays.
const (
	poolSeeds    = 24
	prefillShare = 0.25
	zipfS        = 1.05
)

// Open-loop arrival rates of the serving phases, in requests per second,
// placed from a rate ladder (--ladder, README.md). On a 2-vCPU host the
// workers' queue wait and the miss p90 start to climb between 90 and 110
// req/s. hi sits at 60, because at 90 the miss median's spread across seeds
// (IQR/median 0.21) came too close to its 0.25 bound, and 15/30 spread no
// less than 30/60; lo is half of hi.
const (
	rateLo = 30.0
	rateHi = 60.0
)

// simCase is one sim-mix configuration.
type simCase struct {
	Name  string // Table 2 mix name, or "4xmcf-serial"
	Class string // "ilp" or "mem"
	Cfg   core.Config
}

func (c simCase) key() string { return fmt.Sprintf("%s/%d", c.Name, c.Cfg.Seed) }

// arrival is one scheduled request: its due offset from the phase start and
// the pool entry it submits.
type arrival struct {
	Due  time.Duration
	Pool int
}

// phasePlan is one open-loop serving phase at a fixed rate.
type phasePlan struct {
	Name     string
	Rate     float64
	Arrivals []arrival
}

// inputs is everything one benchmark run submits.
type inputs struct {
	Sim     []simCase
	Pool    []server.SimRequest
	Prefill []int
	Phases  []phasePlan
}

// serialMEMConfig is BenchmarkRunMEMMix's machine: four copies of mcf on all
// four channels ganged into one, close page, FCFS, a shallow queue and a
// serialized in-flight window, under fetch-stall.
func serialMEMConfig() core.Config {
	cfg := core.DefaultConfig("mcf", "mcf", "mcf", "mcf")
	cfg.Mem.PhysChannels = 4
	cfg.Mem.Gang = 4
	cfg.Mem.PageMode = dram.ClosePage
	cfg.Mem.Policy = memctrl.FCFS
	cfg.Mem.QueueDepth = 8
	cfg.Mem.MaxInFlight = 1
	cfg.CPU.Policy = cpu.FetchStall
	return cfg
}

// simCatalog lists sim-mix's configurations in a fixed order at Seed 42.
func simCatalog() []simCase {
	var out []simCase
	for _, m := range []struct{ name, class string }{
		{"2-ILP", "ilp"}, {"4-ILP", "ilp"}, {"8-ILP", "ilp"},
		{"2-MEM", "mem"}, {"4-MEM", "mem"}, {"8-MEM", "mem"},
	} {
		mix, err := workload.MixByName(m.name)
		if err != nil {
			panic(err) // the Table 2 catalog is static
		}
		out = append(out, simCase{Name: m.name, Class: m.class, Cfg: core.DefaultConfig(mix.Apps...)})
	}
	out = append(out, simCase{Name: "4xmcf-serial", Class: "mem", Cfg: serialMEMConfig()})
	for i := range out {
		out[i].Cfg.WarmupInstr = simWarmup
		out[i].Cfg.TargetInstr = simTarget
	}
	return out
}

// stream derives an independent generator for one input component, so adding
// draws to one component never shifts another's.
func stream(seed int64, component int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + component))
}

// makeInputs builds every input of a run from its seed. phaseSeconds sizes
// the two serving phases' arrival schedules.
func makeInputs(seed int64, phaseSeconds [2]float64) inputs {
	var in inputs

	r := stream(seed, 1)
	cat := simCatalog()
	for _, i := range r.Perm(len(cat)) {
		c := cat[i]
		c.Cfg.Seed = goldenSeeds[r.Intn(len(goldenSeeds))]
		in.Sim = append(in.Sim, c)
	}

	in.Pool = makePool()

	r = stream(seed, 4)
	perm := r.Perm(len(in.Pool))
	in.Prefill = append([]int(nil), perm[:int(prefillShare*float64(len(in.Pool)))]...)
	sort.Ints(in.Prefill)

	for p, rate := range []float64{rateLo, rateHi} {
		in.Phases = append(in.Phases, makePhase(seed, []string{"lo", "hi"}[p], rate, phaseSeconds[p], len(in.Pool)))
	}
	return in
}

// phaseComponent gives each rate its own input stream, so the lo and hi
// schedules and those of a ladder's rungs never share draws.
func phaseComponent(rate float64) int64 { return 100 + int64(rate*1000) }

// makePhase draws one open-loop phase: Poisson arrivals at rate for seconds,
// each naming a pool entry by Zipf popularity. Zipf rank k maps to a seeded
// pool permutation, so the popular entries differ per seed but the shape does
// not.
func makePhase(seed int64, name string, rate, seconds float64, poolLen int) phasePlan {
	r := stream(seed, phaseComponent(rate))
	rank := r.Perm(poolLen)
	z := rand.NewZipf(r, zipfS, 1, uint64(poolLen-1))
	plan := phasePlan{Name: name, Rate: rate}
	end := time.Duration(seconds * float64(time.Second))
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= end {
			return plan
		}
		plan.Arrivals = append(plan.Arrivals, arrival{Due: t, Pool: rank[z.Uint64()]})
	}
}

// makePool lays out the serving pool in the shape of the serving layer's own
// load mix, client.DefaultLoadMix: its one- and two-thread memory-bound
// application sets at its 2k warmup / 10k target instructions, each on the
// default machine and on its FCFS-scheduling and close-page variants. The
// mix's ten requests would all be hits after a second of load, so the pool
// crosses every set with every variant under poolSeeds workload seeds
// (288 distinct requests). The pool's make-up is the same for every benchmark
// seed, so per-request cost is drawn from one population; the seed decides
// which entries are popular, which are prefilled, and when requests arrive.
func makePool() []server.SimRequest {
	warm, target := uint64(2_000), uint64(10_000)
	var pool []server.SimRequest
	for _, apps := range [][]string{{"mcf"}, {"ammp"}, {"mcf", "ammp"}, {"swim", "mcf"}} {
		for _, v := range []struct{ policy, pageMode string }{{"", ""}, {"fcfs", ""}, {"", "close"}} {
			for s := int64(1); s <= poolSeeds; s++ {
				seed := s
				pool = append(pool, server.SimRequest{Apps: apps, Policy: v.policy, PageMode: v.pageMode,
					Warmup: &warm, Target: &target, Seed: &seed})
			}
		}
	}
	return pool
}
