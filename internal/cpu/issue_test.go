package cpu

import (
	"fmt"
	"testing"

	"smtdram/internal/cache"
	"smtdram/internal/event"
	"smtdram/internal/workload"
)

// refEntry names a dispatched uop by value, so a squashed slot's
// re-dispatched occupant is a different entry.
type refEntry struct {
	t          *thread
	seq, epoch uint64
}

// refScan is the reference issue stage: a plain scan of the whole issue
// queue in dispatch order, every cycle, computing each entry's readiness from
// depReadyAt and applying the int/FP width, functional-unit and MSHR rules.
// It keeps its own dispatch-ordered queue, built from what dispatch moved
// into the ROBs, so it shares no state with the wakeup/select structures.
type refScan struct {
	queue []refEntry
	// Coverage: cycles that spent the FP width, spent both widths, or
	// parked a load on a full MSHR file.
	fpOut, widthsOut, mshrParks int
}

// issue runs the reference scan on c at now, issuing through the CPU's own
// issueLoad/issueALU, and returns what it issued in issue order.
func (r *refScan) issue(c *CPU, now uint64) (issued []refEntry) {
	intLeft, fpLeft := c.cfg.IntIssueWidth, c.cfg.FPIssueWidth
	aluInt, multInt := c.cfg.IntALU, c.cfg.IntMult
	aluFP, multFP := c.cfg.FPALU, c.cfg.FPMult
	keep := r.queue[:0]
	for _, e := range r.queue {
		u := &e.t.rob[e.seq%uint64(len(e.t.rob))]
		if u.seq != e.seq || u.epoch != e.epoch || u.state != stWaiting {
			continue
		}
		if (intLeft == 0 && fpLeft == 0) || max(e.t.depReadyAt(u.dep1), e.t.depReadyAt(u.dep2)) > now {
			keep = append(keep, e)
			continue
		}
		fp := u.in.Kind == workload.FPOp
		var left, unit *int
		switch long := u.in.Lat >= 7; {
		case fp && long:
			left, unit = &fpLeft, &multFP
		case fp:
			left, unit = &fpLeft, &aluFP
		case long:
			left, unit = &intLeft, &multInt
		default:
			left, unit = &intLeft, &aluInt
		}
		if *left == 0 || *unit == 0 {
			keep = append(keep, e)
			continue
		}
		*left--
		*unit--
		if u.in.Kind == workload.Load {
			if !c.issueLoad(now, e.t, u) {
				intLeft++
				aluInt++
				r.mshrParks++
				keep = append(keep, e)
				continue
			}
		} else {
			c.issueALU(now, e.t, u)
		}
		if fp {
			c.fpIQUsed--
			e.t.iqFP--
		} else {
			c.intIQUsed--
			e.t.iqInt--
		}
		c.acted = true
		issued = append(issued, e)
	}
	r.queue = keep
	if fpLeft == 0 {
		r.fpOut++
		if intLeft == 0 {
			r.widthsOut++
		}
	}
	// This machine never selects through the wakeup structures: discard
	// what its wakeups filed there.
	c.ready, c.ringN = c.ready[:0], 0
	for b := range c.ring {
		c.ring[b] = c.ring[b][:0]
	}
	return issued
}

// dispatch runs c's dispatch stage and appends what it dispatched to the
// reference queue, in dispatch order: threads in the stage's round-robin
// rotation, each thread's uops in sequence order.
func (r *refScan) dispatch(c *CPU, now uint64) {
	rr, before := c.rrDispatch, make([]uint64, len(c.threads))
	for i, t := range c.threads {
		before[i] = t.nextSeq
	}
	c.dispatch(now)
	for i := range c.threads {
		t := c.threads[(i+rr)%len(c.threads)]
		for s := before[t.id]; s < t.nextSeq; s++ {
			r.queue = append(r.queue, refEntry{t, s, t.epoch})
		}
	}
}

// issueCase is one reference-test machine: a policy over fresh sources.
type issueCase struct {
	name   string
	policy FetchPolicy
	srcs   func(t *testing.T) []Source
}

func genSources(apps ...string) func(t *testing.T) []Source {
	return func(t *testing.T) []Source {
		var srcs []Source
		for i, app := range apps {
			srcs = append(srcs, realGen(t, app, i))
		}
		return srcs
	}
}

// widthMix is bursts of FP and integer work at 1/4/7-cycle latencies: a
// 7-cycle FP op, then 5 FP and 10 integer ops that all wait on it and so
// wake in the same cycle — more than the FP width (4) and the integer width
// (8) can take, with the FP ALUs and multipliers (2 + 2) both in play.
func widthMix(t *testing.T) []Source {
	ins := []workload.Instr{{Kind: workload.FPOp, Lat: 7}}
	for d := 1; d < 16; d++ {
		in := workload.Instr{Kind: workload.IntOp, Lat: 1 + 6*(d%2), Dep1: d}
		if d%3 == 0 {
			in.Kind, in.Lat = workload.FPOp, 4+3*(d%2)
		}
		ins = append(ins, in)
	}
	for len(ins) < 100_000 {
		ins = append(ins, ins[:16]...)
	}
	return []Source{&script{ins: ins}, &script{ins: ins}}
}

// TestIssueMatchesReferenceScan drives two identical machines cycle by
// cycle. On one, the reference scan is the issue stage; on the other, the
// wakeup/select issue stage. Every cycle, after commit, both must issue the
// same uops in the same order, and the machines must stay identical.
func TestIssueMatchesReferenceScan(t *testing.T) {
	const cycles = 6000
	var cases []issueCase
	for _, p := range []FetchPolicy{RoundRobin, ICOUNT, FetchStall, DG, DWarn, Coop} {
		cases = append(cases,
			issueCase{"1t-" + p.String(), p, genSources("mcf")},
			issueCase{"2t-" + p.String(), p, genSources("gzip", "mcf")},
			issueCase{"8t-" + p.String(), p, genSources("gzip", "mcf", "bzip2", "ammp", "sixtrack", "swim", "eon", "lucas")})
	}
	cases = append(cases, issueCase{"widths", ICOUNT, widthMix})
	var total refScan
	var squashes uint64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Policy = tc.policy
			ref, sut := newRig(t, cfg, tc.srcs(t)...), newRig(t, cfg, tc.srcs(t)...)
			var rs refScan
			var order []wakeRef
			for now := uint64(1); now <= cycles; now++ {
				for _, m := range []*rig{ref, sut} {
					m.q.RunUntil(now)
					m.cpu.Cycles++
					m.cpu.acted = false
					m.cpu.commit(now)
				}
				want := rs.issue(ref.cpu, now)

				// Select walks the ready set in slice order once the due
				// wake buckets are in; record that order, then issue.
				sut.cpu.drainRing(now)
				order = order[:0]
				for _, e := range sut.cpu.ready {
					if e.live() {
						order = append(order, e)
					}
				}
				sut.cpu.issue(now)
				var got []refEntry
				for _, e := range order {
					if e.u.state == stIssued && e.u.issuedAt == now {
						got = append(got, refEntry{sut.cpu.threads[e.u.tid], e.u.seq, e.u.epoch})
					}
				}
				if a, b := fmt.Sprint(entryIDs(want)), fmt.Sprint(entryIDs(got)); a != b {
					t.Fatalf("cycle %d: reference issued %s, wakeup/select issued %s", now, a, b)
				}

				rs.dispatch(ref.cpu, now)
				sut.cpu.dispatch(now)
				for _, m := range []*rig{ref, sut} {
					m.cpu.fetch(now)
					m.cpu.drainStores(now)
				}
				if a, b := ref.cpu.Fingerprint(), sut.cpu.Fingerprint(); a != b || ref.l1d.Stats != sut.l1d.Stats {
					t.Fatalf("cycle %d: machines diverged\nreference: %+v %+v\nselect:    %+v %+v",
						now, a, ref.l1d.Stats, b, sut.l1d.Stats)
				}
			}
			total.fpOut += rs.fpOut
			total.widthsOut += rs.widthsOut
			total.mshrParks += rs.mshrParks
			for i := range sut.cpu.threads {
				squashes += sut.cpu.Squashes(i)
			}
		})
	}
	if total.fpOut == 0 || total.widthsOut == 0 || total.mshrParks == 0 || squashes == 0 {
		t.Fatalf("coverage: %d FP-width-exhausted cycles, %d both-widths cycles, %d MSHR parks, %d squashes; want all > 0",
			total.fpOut, total.widthsOut, total.mshrParks, squashes)
	}
}

func entryIDs(es []refEntry) [][2]uint64 {
	ids := make([][2]uint64, len(es))
	for i, e := range es {
		ids[i] = [2]uint64{uint64(e.t.id), e.seq}
	}
	return ids
}

// The thread state piggybacked on memory requests counts the loads still in
// flight, not the lazily pruned in-flight list: under ICOUNT nothing prunes
// that list, so it keeps every matured load.
func TestMetaOutstandingCountsLiveLoads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = ICOUNT
	r := newQuiesceRig(t, cfg, realGen(t, "mcf", 0), realGen(t, "art", 1))
	stale := false
	for now := uint64(1); now <= 20_000; now++ {
		r.q.RunUntil(now)
		r.cpu.Tick(now)
		for _, th := range r.cpu.threads {
			live := 0
			for s := th.headSeq; s < th.nextSeq; s++ {
				if u := &th.rob[s%uint64(len(th.rob))]; u.state == stIssued && u.liveLoad(now) {
					live++
				}
			}
			if got := r.cpu.meta(th, false).State.Outstanding; got != live {
				t.Fatalf("cycle %d thread %d: meta Outstanding = %d, want %d live loads (%d in the in-flight list)",
					now, th.id, got, live, len(th.inFlight))
			}
			stale = stale || len(th.inFlight) > live
		}
	}
	if !stale {
		t.Fatal("no matured load was ever left in an in-flight list; the test is vacuous")
	}
}

// BenchmarkTick measures the core alone: ns per ticked cycle of a Table 1
// core running Table 2's 4-ILP and 8-ILP mixes over Table 1's L1s and L2,
// with a fixed-latency memory below. The machine warms up outside the timer;
// each iteration is one cycle.
func BenchmarkTick(b *testing.B) {
	for _, mix := range []string{"4-ILP", "8-ILP"} {
		b.Run(mix, func(b *testing.B) {
			m, err := workload.MixByName(mix)
			if err != nil {
				b.Fatal(err)
			}
			var q event.Queue
			l1 := func(name string, lower cache.Backend) *cache.Level {
				l, err := cache.New(&q, cache.Config{Name: name, SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 16}, lower)
				if err != nil {
					b.Fatal(err)
				}
				return l
			}
			l2, err := cache.New(&q, cache.Config{Name: "L2", SizeBytes: 512 << 10, Assoc: 2, LineBytes: 64, Latency: 10, MSHRs: 16},
				cache.NewFixedLatency(&q, 200))
			if err != nil {
				b.Fatal(err)
			}
			var srcs []Source
			for i, app := range m.Apps {
				a, err := workload.ByName(app)
				if err != nil {
					b.Fatal(err)
				}
				g, err := workload.NewGen(a, i, 42)
				if err != nil {
					b.Fatal(err)
				}
				srcs = append(srcs, g)
			}
			c, err := New(&q, DefaultConfig(), srcs, l1("L1I", l2), l1("L1D", l2))
			if err != nil {
				b.Fatal(err)
			}
			now := uint64(0)
			tick := func() {
				now++
				q.RunUntil(now)
				c.Tick(now)
			}
			for i := 0; i < 50_000; i++ {
				tick()
			}
			committed := c.TotalCommitted
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
			b.ReportMetric(float64(c.TotalCommitted-committed)/float64(b.N), "IPC")
		})
	}
}
