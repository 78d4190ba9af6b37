package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/obs"
	"smtdram/internal/workload"
)

// sim-mix: sequential cold core.Run of a fixed configuration list in two
// classes — ilp (cache-resident, issue-bound) and mem (memory-bound, deep
// clock skipping). light_ms and heavy_ms are host CPU milliseconds per
// million committed instructions (all threads, warmup included) of the ilp
// and mem classes; the report line carries the wall-clock rates.

// simStats is one configuration's deterministic counters, read from a run.
type simStats struct {
	committed, squashes, instrs, fired uint64
	wall, skipped                      uint64
	l1d, l2, l3, reads, writes         uint64
	readLatency                        float64
	rowHits, rowConflicts              uint64
}

func (st simStats) ticked() uint64 { return st.wall - st.skipped }

// countingSource counts the instructions a workload generator hands the CPU.
type countingSource struct {
	src cpu.Source
	n   uint64
}

func (c *countingSource) Next() workload.Instr {
	c.n++
	return c.src.Next()
}

// simRun is one timed simulation and what the traced variant observed.
type simRun struct {
	d, cpu    time.Duration
	committed uint64 // all threads, warmup included
	stats     simStats
}

// runSim runs one configuration cold and checks it against its golden. The
// traced variant feeds the CPU through counting wrappers over the same
// generators core builds, attaches the event-loop profiler, and charges the
// run's CPU profile to layers.
func runSim(e *env, c simCase, traced bool, lt *layerTimes) (simRun, error) {
	cfg := c.Cfg
	var srcs []*countingSource
	var ob *obs.Observer
	if traced {
		cfg.Sources = make([]cpu.Source, len(cfg.Apps))
		for i, name := range cfg.Apps {
			app, err := workload.ByName(name)
			if err != nil {
				return simRun{}, err
			}
			g, err := workload.NewGen(app, i, cfg.Seed)
			if err != nil {
				return simRun{}, err
			}
			cs := &countingSource{src: g}
			srcs = append(srcs, cs)
			cfg.Sources[i] = cs
		}
		ob = obs.New(obs.Options{Profile: true})
		cfg.Observe = func() *obs.Observer { return ob }
	}
	runtime.GC() // every run starts from a collected heap
	var p profiler
	if traced {
		if err := p.start(); err != nil {
			return simRun{}, err
		}
	}
	t, c0 := time.Now(), cpuTime()
	s, err := core.NewSimulator(cfg)
	var res core.Result
	if err == nil {
		res, err = s.Run()
	}
	d := time.Since(t)
	cpuD := cpuTime() - c0
	if traced {
		if perr := p.stop(lt); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return simRun{}, fmt.Errorf("%s: %w", c.key(), err)
	}
	if err := e.golden.checkSim(c, s, res); err != nil {
		return simRun{}, err
	}
	r := simRun{d: d, cpu: cpuD, committed: s.Progress(0).Committed}
	if traced {
		st := &r.stats
		st.committed = r.committed
		for i := range res.Squashes {
			st.squashes += res.Squashes[i]
		}
		for _, cs := range srcs {
			st.instrs += cs.n
		}
		st.fired = uint64(math.Round(ob.Prof.Hist.Mean() * float64(ob.Prof.Hist.Count())))
		st.wall, st.skipped = s.SkipStats().Wall, s.SkipStats().Skipped
		st.l1d, st.l2, st.l3 = res.Caches[1].Misses, res.Caches[2].Misses, res.Caches[3].Misses
		st.reads, st.writes, st.readLatency = res.MemReads, res.MemWrites, res.AvgReadLatency
		st.rowHits, st.rowConflicts = res.RowHits, res.RowConflicts
	}
	return r, nil
}

func runSimMix(e *env) (*outcome, error) {
	o := newOutcome()
	// Set-up: construct every configuration's machine setupBuilds times per
	// round, nine rounds. Each construction starts from a collected heap, so
	// no construction pays for an earlier one's garbage and the set-up leaves
	// the peak resident set to the runs; a round sums the constructions'
	// process CPU times, as the runs are timed.
	const setupBuilds = 10
	for i := 0; i < 9; i++ {
		var spent time.Duration
		for j := 0; j < setupBuilds; j++ {
			for _, c := range e.in.Sim {
				runtime.GC()
				c0 := cpuTime()
				if _, err := core.NewSimulator(c.Cfg); err != nil {
					return nil, err
				}
				spent += cpuTime() - c0
			}
		}
		o.setup = append(o.setup, spent.Seconds())
	}

	cases := e.in.Sim
	wall := map[string][]float64{}   // key → untraced run wall ms
	cpu := map[string][]float64{}    // key → untraced run CPU ms
	traced := map[string][]float64{} // key → traced run wall ms
	layerByKey := map[string]*layerTimes{}
	statsByKey := map[string]simStats{}
	committed := map[string]uint64{}
	deadline := time.Now().Add(e.seconds)
	for i := 0; i < len(cases) || time.Now().Before(deadline); i++ {
		c := cases[i%len(cases)]
		o.attempted++
		r, err := runSim(e, c, false, nil)
		if err != nil {
			o.fail(err)
			continue
		}
		wall[c.key()] = append(wall[c.key()], ms(r.d))
		cpu[c.key()] = append(cpu[c.key()], ms(r.cpu))
		committed[c.key()] = r.committed
		if !e.trace {
			continue
		}
		lt := layerByKey[c.key()]
		if lt == nil {
			lt = newLayerTimes()
			layerByKey[c.key()] = lt
		}
		o.attempted++
		r, err = runSim(e, c, true, lt)
		if err != nil {
			o.fail(err)
			continue
		}
		traced[c.key()] = append(traced[c.key()], ms(r.d))
		statsByKey[c.key()] = r.stats
	}

	// perMinstr is one class's milliseconds per million committed
	// instructions: per-configuration median times over the class's
	// committed work, so the Config.Seed draw (which shifts how much a
	// configuration simulates) and a window that stops mid-pass both cancel.
	perMinstr := func(class string, times map[string][]float64) (float64, int) {
		total, instrs, n := 0.0, uint64(0), 0
		for _, c := range cases {
			if c.Class == class {
				total += median(times[c.key()])
				instrs += committed[c.key()]
				n += len(times[c.key()])
			}
		}
		return total / (float64(instrs) / 1e6), n
	}
	var nLight, nHeavy int
	o.light, nLight = perMinstr("ilp", cpu)
	o.heavy, nHeavy = perMinstr("mem", cpu)
	o.samples["light_ms"], o.samples["heavy_ms"] = nLight, nHeavy
	o.units["light_ms"], o.units["heavy_ms"] = "CPU ms/Minstr", "CPU ms/Minstr"
	wallLight, _ := perMinstr("ilp", wall)
	wallHeavy, _ := perMinstr("mem", wall)
	o.detail["minstr_per_s.ilp"] = 1e3 / wallLight
	o.detail["minstr_per_s.mem"] = 1e3 / wallHeavy

	if e.trace {
		tl, _ := perMinstr("ilp", traced)
		th, _ := perMinstr("mem", traced)
		o.layer["trace.overhead"] = (tl+th)/(wallLight+wallHeavy) - 1
		for _, class := range []string{"ilp", "mem"} {
			cls := map[string]string{"ilp": "light", "mem": "heavy"}[class]
			var agg simStats
			var wallNs float64
			for _, c := range cases {
				if c.Class != class {
					continue
				}
				if n := len(traced[c.key()]); n > 0 {
					o.addProfile(cls, layerByKey[c.key()], float64(n))
				}
				st := statsByKey[c.key()]
				agg.committed += st.committed
				agg.squashes += st.squashes
				agg.instrs += st.instrs
				agg.fired += st.fired
				agg.wall += st.wall
				agg.skipped += st.skipped
				agg.l1d += st.l1d
				agg.l2 += st.l2
				agg.l3 += st.l3
				agg.reads += st.reads
				agg.writes += st.writes
				agg.readLatency += st.readLatency * float64(st.reads)
				agg.rowHits += st.rowHits
				agg.rowConflicts += st.rowConflicts
				wallNs += median(wall[c.key()]) * 1e6
			}
			if agg.reads > 0 {
				agg.readLatency /= float64(agg.reads)
			}
			for name, v := range map[string]float64{
				"cpu.committed":               float64(agg.committed),
				"cpu.squashes":                float64(agg.squashes),
				"workload.instrs":             float64(agg.instrs),
				"event.fired":                 float64(agg.fired),
				"core.wall_cycles":            float64(agg.wall),
				"core.skipped_cycles":         float64(agg.skipped),
				"core.ns_per_ticked_cycle":    wallNs / float64(agg.ticked()),
				"cache.l1d_misses":            float64(agg.l1d),
				"cache.l2_misses":             float64(agg.l2),
				"cache.l3_misses":             float64(agg.l3),
				"memctrl.reads":               float64(agg.reads),
				"memctrl.writes":              float64(agg.writes),
				"memctrl.read_latency_cycles": agg.readLatency,
				"dram.row_hits":               float64(agg.rowHits),
				"dram.row_conflicts":          float64(agg.rowConflicts),
			} {
				o.layer[name+"."+class] = v
			}
		}
	}
	return o, nil
}
