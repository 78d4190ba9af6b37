package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/fleet"
	"smtdram/internal/server"
	"smtdram/internal/server/client"
	"smtdram/internal/store"
)

// serve-fleet: an in-process coordinator over two durable workers, driven
// open-loop at two fixed Poisson rates (rateLo, rateHi) over a pool of small
// simulations with seeded Zipf popularity. Each rate runs on a fresh fleet
// whose set-up fills only w1's store with a seeded subset of results, so
// prefilled keys the ring gives to w2 are answered through peer fetch.
// Latency runs from each request's due time to the moment the client sees it
// done. light_ms and heavy_ms are the hit and miss medians over both rates.

// servePhase is one phase's observations.
type servePhase struct {
	name               string
	hit, miss          []float64 // ms from due time
	late               []float64 // ms the generator sent after due
	submitRTT, pollRTT []float64
	polls, polledJobs  int
	attempted, failed  int
	failures           []error
	bodies             map[int][][]byte // pool index → served result bodies
	owner              map[int]string   // pool index → id of a job that served it
	stats              []server.Stats
	lt                 *layerTimes
	proxyHopMs         float64
}

func (p *servePhase) fail(err error) {
	p.failed++
	p.failures = append(p.failures, err)
}

func workerConfig() server.Config {
	// A queue deep enough that the open-loop load is never refused.
	return server.Config{Workers: 1, QueueDepth: 1024, Fsync: store.FsyncOff}
}

func runServeFleet(e *env) (*outcome, error) {
	o := newOutcome()
	type step struct {
		plan   phasePlan
		traced bool
	}
	lo, hi := e.in.Phases[0], e.in.Phases[1]
	steps := []step{{lo, false}, {hi, false}}
	if e.trace {
		steps = []step{{lo, true}, {hi, false}, {hi, true}}
	}
	var phases []*servePhase
	for i, s := range steps {
		ph, setup, err := runPhase(e, i, s.plan, s.traced)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, setup)
		phases = append(phases, ph)
	}
	// More set-ups than the phases needed, so setup_s is a median of five.
	for len(o.setup) < 5 {
		f, setup, err := setUpFleet(e, len(o.setup))
		if err != nil {
			return nil, err
		}
		f.Close()
		o.setup = append(o.setup, setup)
	}

	checkServed(e, phases)
	for _, ph := range phases {
		o.attempted += ph.attempted
		o.failed += ph.failed
		for _, err := range ph.failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", ph.name+":", err)
		}
	}

	byName := map[string]*servePhase{}
	for _, ph := range phases {
		byName[ph.name] = ph // a traced run's hi is the traced one
	}
	// The end-to-end figures pool the untraced low- and high-rate phases.
	plain := []*servePhase{phases[0], phases[1]}
	if e.trace {
		plain = []*servePhase{phases[1]}
	}
	var hits, misses []float64
	for _, ph := range plain {
		hits = append(hits, ph.hit...)
		misses = append(misses, ph.miss...)
	}
	o.light, o.heavy = median(hits), median(misses)
	o.samples["light_ms"], o.samples["heavy_ms"] = len(hits), len(misses)
	o.units["light_ms"], o.units["heavy_ms"] = "ms/request", "ms/request"
	for _, ph := range []*servePhase{phases[0], phases[1]} {
		r := ph.name
		o.detail["hit_p50_ms."+r] = median(ph.hit)
		o.detail["hit_p90_ms."+r] = quantile(ph.hit, 0.9)
		o.detail["miss_p50_ms."+r] = median(ph.miss)
		o.detail["miss_p90_ms."+r] = quantile(ph.miss, 0.9)
		o.detail["hits."+r] = float64(len(ph.hit))
		o.detail["misses."+r] = float64(len(ph.miss))
		o.detail["hit_share."+r] = float64(len(ph.hit)) / float64(len(ph.hit)+len(ph.miss))
		o.detail["gen.late_ms_max."+r] = maxOf(ph.late)
	}

	if e.trace {
		tr := byName["hi"]
		o.layer["trace.overhead"] = (median(tr.hit)+median(tr.miss))/(o.light+o.heavy) - 1
		o.layer["fleet.proxy_hop_ms"] = tr.proxyHopMs
		o.addProfile("light", byName["lo"].lt, 1)
		o.addProfile("heavy", tr.lt, 1)
		for _, ph := range []*servePhase{byName["lo"], tr} {
			for k, v := range ph.layerFigures() {
				o.layer[k+"."+ph.name] = v
			}
		}
	}
	return o, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// setUpFleet is one set-up: compute the seeded prefill subset on a lone w1,
// then bring up coordinator + that w1 + an empty w2 and wait until both
// workers are in the ring.
func setUpFleet(e *env, n int) (*fleet.LocalFleet, float64, error) {
	t := time.Now()
	base := filepath.Join(e.work, fmt.Sprintf("fleet-%d", n))
	d1, d2 := filepath.Join(base, "w1"), filepath.Join(base, "w2")
	if err := prefill(e, d1); err != nil {
		return nil, 0, fmt.Errorf("prefill: %w", err)
	}
	f, err := fleet.StartLocal(fleet.LocalConfig{
		Nodes:       []fleet.LocalNode{{ID: "w1", DataDir: d1}, {ID: "w2", DataDir: d2}},
		Worker:      workerConfig(),
		Coordinator: fleet.CoordinatorConfig{ProbeInterval: 100 * time.Millisecond},
	})
	if err != nil {
		return nil, 0, err
	}
	if err := f.WaitReady(2, 30*time.Second); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, time.Since(t).Seconds(), nil
}

// prefill computes the prefill subset into a lone w1's store under dir.
func prefill(e *env, dir string) error {
	f, err := fleet.StartLocal(fleet.LocalConfig{
		Nodes:  []fleet.LocalNode{{ID: "w1", DataDir: dir}},
		Worker: workerConfig(),
	})
	if err != nil {
		return err
	}
	defer f.Close()
	cl := client.New(f.Workers[0].URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var ids []string
	for _, idx := range e.in.Prefill {
		st, err := cl.SubmitSim(ctx, e.in.Pool[idx])
		if err != nil {
			return err
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st, err := cl.Wait(ctx, id, 2*time.Millisecond)
		if err != nil {
			return err
		}
		if st.State != server.StateDone {
			return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	return nil
}

// runPhase drives one plan against a fresh fleet.
func runPhase(e *env, n int, plan phasePlan, traced bool) (*servePhase, float64, error) {
	f, setup, err := setUpFleet(e, n)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	ph := &servePhase{name: plan.Name, bodies: map[int][][]byte{}, owner: map[int]string{}, lt: newLayerTimes()}
	var p profiler
	if traced {
		if err := p.start(); err != nil {
			return nil, 0, err
		}
	}
	drive(f.CoordURL, e.in.Pool, plan, ph)
	if traced {
		if err := p.stop(ph.lt); err != nil {
			return nil, 0, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range f.Workers {
		st, err := client.New(w.URL).Stats(ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("stats of %s: %w", w.ID, err)
		}
		ph.stats = append(ph.stats, st)
	}
	if traced {
		ph.proxyHopMs = proxyHop(e, f, ph)
	}
	return ph, setup, nil
}

// drive runs the open-loop schedule: one goroutine submits each request at
// its due time, another polls submitted jobs until they finish. The two share
// one transport limited to two connections.
func drive(url string, pool []server.SimRequest, plan phasePlan, ph *servePhase) {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	cl := client.New(url)
	cl.HTTP = &http.Client{Transport: tr}
	var length time.Duration
	if n := len(plan.Arrivals); n > 0 {
		length = plan.Arrivals[n-1].Due
	}
	ctx, cancel := context.WithTimeout(context.Background(), length+time.Minute)
	defer cancel()

	type pending struct {
		id   string
		due  time.Time
		pool int
	}
	var mu sync.Mutex // guards ph between the two goroutines
	served := func(idx int, id string, body []byte) {
		ph.bodies[idx] = append(ph.bodies[idx], body)
		ph.owner[idx] = id
	}
	submitted := make(chan pending, len(plan.Arrivals)) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var live []pending
		for open := true; open || len(live) > 0; {
			if len(live) == 0 {
				p, ok := <-submitted
				if !ok {
					break
				}
				live = append(live, p)
			}
		take:
			for {
				select {
				case p, ok := <-submitted:
					if !ok {
						open = false
						break take
					}
					live = append(live, p)
				default:
					break take
				}
			}
			round := time.Now()
			kept := live[:0]
			for _, p := range live {
				t0 := time.Now()
				st, err := cl.Job(ctx, p.id)
				t1 := time.Now()
				mu.Lock()
				ph.pollRTT = append(ph.pollRTT, ms(t1.Sub(t0)))
				ph.polls++
				switch {
				case err != nil:
					ph.fail(fmt.Errorf("poll %s: %w", p.id, err))
				case st.State == server.StateDone:
					ph.miss = append(ph.miss, ms(t1.Sub(p.due)))
					served(p.pool, p.id, st.Result)
				case st.State == server.StateFailed || st.State == server.StateCancelled:
					ph.fail(fmt.Errorf("job %s ended %s: %s", p.id, st.State, st.Error))
				default:
					kept = append(kept, p)
				}
				mu.Unlock()
			}
			live = kept
			if len(live) > 0 {
				time.Sleep(time.Until(round.Add(2 * time.Millisecond)))
			}
		}
	}()

	start := time.Now().Add(20 * time.Millisecond)
	for _, a := range plan.Arrivals {
		due := start.Add(a.Due)
		time.Sleep(time.Until(due))
		t0 := time.Now()
		st, err := cl.SubmitSim(ctx, pool[a.Pool])
		t1 := time.Now()
		mu.Lock()
		ph.attempted++
		ph.late = append(ph.late, ms(t0.Sub(due)))
		ph.submitRTT = append(ph.submitRTT, ms(t1.Sub(t0)))
		switch {
		case err != nil:
			ph.fail(fmt.Errorf("submit: %w", err))
		case st.Cached || st.Peer:
			ph.hit = append(ph.hit, ms(t1.Sub(due)))
			served(a.Pool, st.ID, st.Result)
		default:
			ph.polledJobs++
			submitted <- pending{id: st.ID, due: due, pool: a.Pool}
		}
		mu.Unlock()
	}
	close(submitted)
	wg.Wait()
}

// proxyHop sends one seeded set of already-cached requests both straight to
// their owning worker and through the coordinator, alternating, and returns
// the difference of the two median round trips.
func proxyHop(e *env, f *fleet.LocalFleet, ph *servePhase) float64 {
	urls := map[string]string{}
	for _, w := range f.Workers {
		urls[w.ID] = w.URL
	}
	var idxs []int
	for _, i := range stream(e.seed, 9).Perm(len(e.in.Pool)) {
		if _, ok := ph.owner[i]; ok && len(idxs) < 40 {
			idxs = append(idxs, i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord := client.New(f.CoordURL)
	var direct, viaCoord []float64
	for _, i := range idxs {
		owner := client.New(urls[fleet.NodeOfJobID(ph.owner[i])])
		for _, c := range []*client.Client{owner, coord} {
			t := time.Now()
			st, err := c.SubmitSim(ctx, e.in.Pool[i])
			d := ms(time.Since(t))
			if err != nil || !st.Cached {
				continue // not a cached answer: no hop to compare
			}
			if c == coord {
				viaCoord = append(viaCoord, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	return median(viaCoord) - median(direct)
}

// layerFigures condenses one phase's client, generator and worker
// observations into the serve-fleet per-layer metrics.
func (p *servePhase) layerFigures() map[string]float64 {
	out := map[string]float64{
		"client.submit_ms": median(p.submitRTT),
		"client.poll_ms":   median(p.pollRTT),
		"gen.late_ms_max":  maxOf(p.late),
	}
	if p.polledJobs > 0 {
		out["client.polls_per_job"] = float64(p.polls) / float64(p.polledJobs)
	}
	var hits, lookups uint64
	weighted := map[string][2]float64{}
	for _, st := range p.stats {
		for name, s := range map[string]server.LatencySummary{
			"server.admission_ms": st.Phases.Admission, "server.queue_ms": st.Phases.Queue,
			"server.run_ms": st.Phases.Run, "server.respond_ms": st.Phases.Respond,
		} {
			w := weighted[name]
			weighted[name] = [2]float64{w[0] + s.MeanMs*float64(s.Count), w[1] + float64(s.Count)}
		}
		hits += st.Cache.Hits
		lookups += st.Cache.Hits + st.Cache.Misses
		out["server.sims_run"] += float64(st.Skip.SimRuns)
		out["server.rejected"] += float64(st.Jobs.Rejected)
		out["store.hits"] += float64(st.Store.Hits)
		out["store.misses"] += float64(st.Store.Misses)
		out["store.journal_records"] += float64(st.Store.JournalRecords)
		out["fleet.peer_hits"] += float64(st.Peer.Hits)
	}
	for name, w := range weighted {
		if w[1] > 0 {
			out[name] = w[0] / w[1]
		}
	}
	if lookups > 0 {
		out["server.hit_ratio"] = float64(hits) / float64(lookups)
	}
	return out
}

// checkServed compares every served body with the bytes an in-process
// core.Run of the same request produces, after the timed phases.
func checkServed(e *env, phases []*servePhase) {
	slot := map[int]int{} // pool index → position in idxs
	var idxs []int
	for _, ph := range phases {
		for idx := range ph.bodies {
			if _, ok := slot[idx]; !ok {
				slot[idx] = len(idxs)
				idxs = append(idxs, idx)
			}
		}
	}
	want := make([][]byte, len(idxs))
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, idx := range idxs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			want[i], errs[i] = expectedBody(e.in.Pool[idx])
		}()
	}
	wg.Wait()
	for _, ph := range phases {
		for idx, bodies := range ph.bodies {
			i := slot[idx]
			for _, b := range bodies {
				switch {
				case errs[i] != nil:
					ph.fail(fmt.Errorf("in-process run of pool entry %d: %w", idx, errs[i]))
				case !bytes.Equal(b, want[i]):
					ph.fail(fmt.Errorf("pool entry %d: served bytes differ from core.Run", idx))
				}
			}
		}
	}
}

func expectedBody(req server.SimRequest) ([]byte, error) {
	cfg, err := req.Config()
	if err != nil {
		return nil, err
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// runLadder places the serving rates. It runs one untraced phase of e.seconds
// per rate, each on a fresh fleet set up as the benchmark's are, and prints
// per rate the hit share, the hit and miss latency percentiles, the workers'
// mean queue wait (the backlog: it grows once misses arrive faster than two
// workers run them), their utilisation (simulation run time over two
// workers' wall time), and how late the generator ran.
func runLadder(e *env, rates []float64) error {
	for i, rate := range rates {
		plan := makePhase(e.seed, fmt.Sprint(rate), rate, e.seconds.Seconds(), len(e.in.Pool))
		ph, _, err := runPhase(e, i, plan, false)
		if err != nil {
			return err
		}
		busy := 0.0
		for _, st := range ph.stats {
			busy += st.Phases.Run.MeanMs * float64(st.Phases.Run.Count) / 1e3
		}
		row, _ := json.Marshal(map[string]any{
			"rate": rate, "requests": ph.attempted, "failed": ph.failed,
			"hit_share":  float64(len(ph.hit)) / float64(len(ph.hit)+len(ph.miss)),
			"hit_p50_ms": median(ph.hit), "hit_p90_ms": quantile(ph.hit, 0.9),
			"miss_p50_ms": median(ph.miss), "miss_p90_ms": quantile(ph.miss, 0.9),
			"queue_ms":    ph.layerFigures()["server.queue_ms"],
			"utilisation": busy / (2 * e.seconds.Seconds()),
			"late_ms_max": maxOf(ph.late),
		})
		fmt.Printf("ladder %s\n", row)
	}
	return nil
}
