// Package cpu models the SMT out-of-order processor core: per-thread PCs and
// reorder buffers, shared fetch bandwidth, issue queues, functional units and
// caches, the four instruction-fetch policies the paper compares, branch
// misprediction squash with replay, and MSHR-limited non-blocking loads.
//
// The core is cycle-stepped; the memory subsystem below it is event-driven.
// It is not an ISA interpreter: instructions come from the synthetic
// per-application generators in internal/workload, which preserve exactly
// the properties the paper's memory-system study depends on (clustered
// misses, bounded MLP, resource occupancy under stall). See DESIGN.md §2.
package cpu

import (
	"fmt"

	"smtdram/internal/cache"
	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/obs"
	"smtdram/internal/snap"
	"smtdram/internal/workload"
)

// Config sizes the core, following Table 1 of the paper.
type Config struct {
	FetchWidth        int         // instructions fetched per cycle (8)
	FetchMaxThreads   int         // threads sharing one cycle's fetch (2)
	FrontendDelay     uint64      // fetch→dispatch latency, from the 11-stage pipe (8)
	FrontendCap       int         // per-thread fetch buffer entries (64: covers FetchWidth × FrontendDelay)
	DispatchWidth     int         // instructions dispatched per cycle (8)
	IntIssueWidth     int         // 8
	FPIssueWidth      int         // 4
	IntIQ             int         // shared integer issue-queue entries (64)
	FPIQ              int         // shared FP issue-queue entries (32)
	ROBPerThread      int         // reorder-buffer entries per thread (256)
	LQ, SQ            int         // shared load/store queue entries (64/64)
	IntALU, IntMult   int         // 6, 6
	FPALU, FPMult     int         // 2, 2
	CommitWidth       int         // 8
	MispredictPenalty uint64      // 9 cycles
	L1DLatency        uint64      // used to classify in-flight loads as misses (1)
	L2Latency         uint64      // used to classify in-flight loads as L2 misses (10)
	Policy            FetchPolicy // instruction fetch policy
	// MissIQAllowance caps the issue-queue entries a thread may hold while
	// it is experiencing a miss, under the miss-aware fetch policies
	// (FetchStall, DG, DWarn). Real machines get this bound for free from
	// their shallow decode/rename stages: once fetch is gated, at most a
	// couple of fetch blocks can still dispatch. Our frontend buffer is
	// deep (it models the whole 8-wide × 8-stage pipe), so the gate is
	// applied at dispatch instead. ICOUNT has no such gate — which is
	// exactly why it clogs on MEM-heavy mixes in the paper.
	MissIQAllowance int
}

// DefaultConfig returns the paper's Table 1 core.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        8,
		FetchMaxThreads:   2,
		FrontendDelay:     8,
		FrontendCap:       64,
		DispatchWidth:     8,
		IntIssueWidth:     8,
		FPIssueWidth:      4,
		IntIQ:             64,
		FPIQ:              32,
		ROBPerThread:      256,
		LQ:                64,
		SQ:                64,
		IntALU:            6,
		IntMult:           6,
		FPALU:             2,
		FPMult:            2,
		CommitWidth:       8,
		MispredictPenalty: 9,
		L1DLatency:        1,
		L2Latency:         10,
		Policy:            DWarn,
		MissIQAllowance:   8,
	}
}

// Validate rejects configurations the simulator cannot run.
func (c Config) Validate() error {
	for _, v := range []int{
		c.FetchWidth, c.FetchMaxThreads, c.FrontendCap, c.DispatchWidth,
		c.IntIssueWidth, c.FPIssueWidth, c.IntIQ, c.FPIQ, c.ROBPerThread,
		c.LQ, c.SQ, c.IntALU, c.IntMult, c.FPALU, c.FPMult, c.CommitWidth,
	} {
		if v <= 0 {
			return fmt.Errorf("cpu: non-positive config field in %+v", c)
		}
	}
	return nil
}

// uop states.
const (
	stWaiting uint8 = iota // in ROB and issue queue
	stIssued               // executing (or load in flight)
	stDone                 // result available
)

const noDep = ^uint64(0)
const pendingDone = ^uint64(0)

// uop is one in-flight instruction.
type uop struct {
	in         workload.Instr // retained for replay after squash
	seq        uint64
	epoch      uint64
	tid        int32 // owning hardware thread
	state      uint8
	pending    uint8  // wakeup/select: dependences on an unissued producer or an in-flight load
	doneAt     uint64 // pendingDone while a load is in flight
	issuedAt   uint64
	dep1, dep2 uint64 // absolute producer sequence numbers (noDep = none)

	// Wakeup/select state (see issue); Restore rebuilds it. Links name a
	// consumer's ROB slot and which of its dependences the list is for.
	stamp   uint64    // global dispatch order
	readyAt uint64    // latest completion among the resolved dependences
	cons    uint32    // head of this producer's consumer list
	next    [2]uint32 // successors on dep1's and dep2's consumer lists
}

type feEntry struct {
	in      workload.Instr
	readyAt uint64 // cycle the instruction reaches dispatch
}

// thread is the per-hardware-thread state.
type thread struct {
	id  int
	gen Source

	peeked    workload.Instr // valid only while hasPeeked
	hasPeeked bool
	replay    []workload.Instr
	// replayScratch is the spare buffer resolveBranch builds the next replay
	// list into; it swaps with replay so squashes stop allocating once the
	// two buffers have grown.
	replayScratch []workload.Instr
	// frontend is a head-indexed deque: live entries are frontend[feHead:],
	// dispatch pops by advancing feHead, and fePush compacts in place instead
	// of re-slicing away the buffer's capacity.
	frontend  []feEntry
	feHead    int
	rob       []uop
	headSeq   uint64
	nextSeq   uint64
	epoch     uint64
	iqInt     int
	iqFP      int
	lq, sq    int // this thread's LQ/SQ occupancy
	committed uint64

	inFlight []*uop // loads in flight, issue order (for miss classification)
	// liveLoads counts the loads issued and not yet filled or squashed;
	// inFlight also holds matured loads until oldestLoadAge pops them.
	liveLoads int

	curILine          uint64
	imissPending      bool
	fetchBlockedUntil uint64

	// warmedAt/finishedAt are the cycles the thread crossed the warmup and
	// warmup+target instruction counts (0 while running); the run harness
	// computes IPC as target/(finishedAt-warmedAt).
	warmedAt   uint64
	finishedAt uint64

	// stats
	squashes uint64
	loads    uint64
	stores   uint64
	imisses  uint64
	gated    uint64 // dispatch cycles blocked by the fetch policy's gate
}

func (t *thread) robCount() int { return int(t.nextSeq - t.headSeq) }

// missAge is how long a thread's oldest in-flight load may be outstanding
// before the miss-aware fetch policies count the thread as missing: longer
// than an L2 hit for FetchStall, than an L1 hit for DG, DWarn and Coop.
func (c *CPU) missAge() uint64 {
	if c.cfg.Policy == FetchStall {
		return c.cfg.L1DLatency + c.cfg.L2Latency + 4
	}
	return c.cfg.L1DLatency + 2
}

// hasMiss reports whether t counts as missing under the fetch policy.
func (c *CPU) hasMiss(now uint64, t *thread) bool { return t.oldestLoadAge(now) > c.missAge() }

func (t *thread) oldestLoadAge(now uint64) uint64 {
	for len(t.inFlight) > 0 {
		u := t.inFlight[0]
		if !u.liveLoad(now) {
			t.inFlight = t.inFlight[1:]
			continue
		}
		return now - u.issuedAt
	}
	return 0
}

// liveLoad reports whether an inFlight entry is a load still outstanding at
// now; entries failing it are matured and wait to be popped.
func (u *uop) liveLoad(now uint64) bool {
	return u.in.Kind == workload.Load && u.state != stDone && !(u.state == stIssued && u.doneAt <= now)
}

// next peeks the next instruction to fetch without consuming it. The peeked
// instruction lives in the thread struct by value, so peeking never escapes
// to the heap.
func (t *thread) next() *workload.Instr {
	if !t.hasPeeked {
		if len(t.replay) > 0 {
			t.peeked = t.replay[0]
			t.replay = t.replay[1:]
		} else {
			t.peeked = t.gen.Next()
		}
		t.hasPeeked = true
	}
	return &t.peeked
}

func (t *thread) consume() workload.Instr {
	t.hasPeeked = false
	return t.peeked
}

// feLen is the live frontend-buffer depth.
func (t *thread) feLen() int { return len(t.frontend) - t.feHead }

// fePush appends to the frontend deque, reclaiming popped-off head space
// rather than growing the buffer.
func (t *thread) fePush(e feEntry) {
	if t.feHead > 0 {
		if t.feHead == len(t.frontend) {
			t.frontend = t.frontend[:0]
			t.feHead = 0
		} else if len(t.frontend) == cap(t.frontend) {
			n := copy(t.frontend, t.frontend[t.feHead:])
			t.frontend = t.frontend[:n]
			t.feHead = 0
		}
	}
	t.frontend = append(t.frontend, e)
}

type pendingStore struct {
	addr uint64
	meta cache.Meta
}

// loadFill is the recyclable completion carrier of an in-flight load
// (event.Filler), handed to the L1D as the fill callback. The cache either
// retains an accepted fill carrier until it fires exactly once, or — when
// ReadLine returns false — drops it immediately, so the carrier can be
// released at exactly those two points.
type loadFill struct {
	c          *CPU
	t          *thread
	seq, epoch uint64
}

// OnFill implements event.Filler: the load's line arrived.
func (f *loadFill) OnFill(at uint64) {
	c, t, seq, epoch := f.c, f.t, f.seq, f.epoch
	f.t = nil
	c.wake = true
	c.freeLoadFills = append(c.freeLoadFills, f)
	v := &t.rob[seq%uint64(len(t.rob))]
	if v.seq == seq && v.epoch == epoch && v.state == stIssued {
		v.doneAt = at
		t.liveLoads--
		c.wakeConsumers(t, v)
	}
}

// SnapRef implements event.RefMaker.
func (f *loadFill) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCPULoadFill, Args: []uint64{uint64(f.t.id), f.seq, f.epoch}}
}

func (c *CPU) getLoadFill() *loadFill {
	if n := len(c.freeLoadFills); n > 0 {
		f := c.freeLoadFills[n-1]
		c.freeLoadFills[n-1] = nil
		c.freeLoadFills = c.freeLoadFills[:n-1]
		return f
	}
	return &loadFill{c: c}
}

// ifill is the recyclable I-cache fill carrier (same lifecycle as loadFill:
// retained only by an accepted miss, fires exactly once).
type ifill struct {
	c     *CPU
	t     *thread
	line  uint64
	epoch uint64
}

// OnFill implements event.Filler: the instruction line arrived.
func (f *ifill) OnFill(uint64) {
	c, t, line, epoch := f.c, f.t, f.line, f.epoch
	f.t = nil
	c.wake = true
	c.freeIFills = append(c.freeIFills, f)
	if t.epoch == epoch {
		t.imissPending = false
		t.curILine = line
	}
}

// SnapRef implements event.RefMaker.
func (f *ifill) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCPUIFill, Args: []uint64{uint64(f.t.id), f.line, f.epoch}}
}

func (c *CPU) getIFill() *ifill {
	if n := len(c.freeIFills); n > 0 {
		f := c.freeIFills[n-1]
		c.freeIFills[n-1] = nil
		c.freeIFills = c.freeIFills[:n-1]
		return f
	}
	return &ifill{c: c}
}

// brEvent is the recyclable branch-resolution event (event.Handler); a
// scheduled event fires exactly once, so it releases itself on fire.
type brEvent struct {
	c          *CPU
	t          *thread
	seq, epoch uint64
}

func (e *brEvent) OnEvent(at uint64) {
	c, t, seq, epoch := e.c, e.t, e.seq, e.epoch
	e.t = nil
	c.wake = true
	c.freeBrEvents = append(c.freeBrEvents, e)
	c.resolveBranch(at, t, seq, epoch)
}

// SnapRef implements event.RefMaker.
func (e *brEvent) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCPUBranch, Args: []uint64{uint64(e.t.id), e.seq, e.epoch}}
}

func (c *CPU) getBrEvent() *brEvent {
	if n := len(c.freeBrEvents); n > 0 {
		e := c.freeBrEvents[n-1]
		c.freeBrEvents[n-1] = nil
		c.freeBrEvents = c.freeBrEvents[:n-1]
		return e
	}
	return &brEvent{c: c}
}

// CPU is the simulated SMT processor.
type CPU struct {
	cfg      Config
	q        *event.Queue
	threads  []*thread
	l1i, l1d *cache.Level

	// The issue queue as wakeup/select state (see issue).
	ready   []wakeRef           // issue-eligible uops, in stamp order
	ring    [ringSize][]wakeRef // woken uops, bucketed by readyAt
	ringN   int                 // ring entries, squashed ones included
	drained uint64              // ring buckets up to this cycle are in ready
	stamp   uint64              // last dispatch stamp handed out

	rrFetch    int
	rrDispatch int
	rrCommit   int

	intIQUsed, fpIQUsed int
	lqUsed, sqUsed      int

	// pendingStores is a head-indexed deque (live entries psHead:), drained
	// in place so the committed-store buffer never reallocates in steady
	// state.
	pendingStores []pendingStore
	psHead        int

	scratchThreads []*thread
	scratchOrder   []*thread

	// Free lists for the per-event callback carriers; each carries a closure
	// bound once at creation, so load fills, I-miss fills, and branch
	// resolutions stop allocating once the pools are warm.
	freeLoadFills []*loadFill
	freeIFills    []*ifill
	freeBrEvents  []*brEvent

	warmup uint64 // per-thread instructions to retire before measurement
	target uint64 // per-thread committed-instruction goal past warmup (0 = none)

	// memPressure, when set, reports a thread's pending DRAM request count
	// (the Coop fetch policy's input; see SetMemPressure).
	memPressure func(thread int) int

	// wake is the two-speed clock's dirty flag: set whenever an event
	// delivers CPU-visible state (a load fill, an I-fill, a branch
	// resolution, any L1 install). The run loop's deep-skip span ends at
	// the first event cycle that sets it (see TakeWake).
	wake bool
	// acted records whether the current Tick made real progress (see Acted).
	acted bool

	// Stats
	Cycles         uint64
	TotalCommitted uint64
}

// Source produces a thread's dynamic instruction stream. *workload.Gen is
// the production implementation; tests substitute scripted streams.
type Source interface {
	Next() workload.Instr
}

// maxThreads bounds the SMT contexts: QuietFx tracks gated dispatch in a
// 64-bit mask. Table 1's SMT contexts number at most 8, so the bound costs
// nothing real.
const maxThreads = 64

// New assembles a CPU over the given per-thread instruction sources and L1
// caches.
func New(q *event.Queue, cfg Config, gens []Source, l1i, l1d *cache.Level) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("cpu: no threads")
	}
	if len(gens) > maxThreads {
		return nil, fmt.Errorf("cpu: %d threads exceeds the %d-context limit", len(gens), maxThreads)
	}
	c := &CPU{
		cfg: cfg, q: q, l1i: l1i, l1d: l1d,
		scratchThreads: make([]*thread, 0, len(gens)),
	}
	for i, g := range gens {
		t := &thread{
			id:       i,
			gen:      g,
			rob:      make([]uop, cfg.ROBPerThread),
			curILine: ^uint64(0),
		}
		c.threads = append(c.threads, t)
	}
	// Wakeup hints for the two-speed clock: a fill landing in either L1 can
	// change what the next Tick does, so it must end a deep-skip span.
	poke := func() { c.wake = true }
	l1i.Wake = poke
	l1d.Wake = poke
	return c, nil
}

// Threads returns the hardware thread count.
func (c *CPU) Threads() int { return len(c.threads) }

// Committed returns instructions retired by thread i.
func (c *CPU) Committed(i int) uint64 { return c.threads[i].committed }

// FinishedAt returns the cycle thread i crossed the target set by
// SetTarget, or 0 if it has not.
func (c *CPU) FinishedAt(i int) uint64 { return c.threads[i].finishedAt }

// Squashes returns thread i's branch-mispredict squash count.
func (c *CPU) Squashes(i int) uint64 { return c.threads[i].squashes }

// LoadsStores returns thread i's issued memory-operation counts.
func (c *CPU) LoadsStores(i int) (loads, stores uint64) {
	return c.threads[i].loads, c.threads[i].stores
}

// IMisses returns thread i's instruction-cache miss count.
func (c *CPU) IMisses(i int) uint64 { return c.threads[i].imisses }

// GatedDispatches returns how many times thread i's dispatch was cut short by
// the fetch policy's resource gate (see dispatchGated).
func (c *CPU) GatedDispatches(i int) uint64 { return c.threads[i].gated }

// RegisterMetrics exposes core occupancies and counters through the metrics
// registry. Safe on a nil registry.
func (c *CPU) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("cpu.committed", func(uint64) float64 { return float64(c.TotalCommitted) })
	reg.Sampled("cpu.iq_int_used", func(uint64) float64 { return float64(c.intIQUsed) })
	reg.Sampled("cpu.iq_fp_used", func(uint64) float64 { return float64(c.fpIQUsed) })
	for i, t := range c.threads {
		t := t
		reg.Sampled(fmt.Sprintf("cpu.inflight_loads.t%d", i),
			func(uint64) float64 { return float64(t.liveLoads) })
		reg.Sampled(fmt.Sprintf("cpu.rob.t%d", i),
			func(uint64) float64 { return float64(t.robCount()) })
		reg.Gauge(fmt.Sprintf("cpu.gated_dispatch.t%d", i),
			func(uint64) float64 { return float64(t.gated) })
		reg.Gauge(fmt.Sprintf("cpu.committed.t%d", i),
			func(uint64) float64 { return float64(t.committed) })
	}
}

// SetMemPressure wires the memory controller's live per-thread pending
// request counts into the Coop fetch policy.
func (c *CPU) SetMemPressure(f func(thread int) int) { c.memPressure = f }

// SetTarget arms per-thread completion bookkeeping: each thread first
// retires warmup instructions (cache warmup, mirroring the paper's
// fast-forward), then the CPU records warmedAt, and finishedAt once target
// further instructions commit. Threads keep executing past their target (to
// preserve contention), as in the paper's methodology.
func (c *CPU) SetTarget(warmup, target uint64) {
	c.warmup = warmup
	c.target = target
}

// WarmedAt returns the cycle thread i finished its warmup instructions
// (0 while still warming when a warmup was configured).
func (c *CPU) WarmedAt(i int) uint64 { return c.threads[i].warmedAt }

// AllWarmed reports whether every thread has completed warmup.
func (c *CPU) AllWarmed() bool {
	if c.warmup == 0 {
		return true
	}
	for _, t := range c.threads {
		if t.warmedAt == 0 {
			return false
		}
	}
	return true
}

// AllFinished reports whether every thread has crossed the target.
func (c *CPU) AllFinished() bool {
	for _, t := range c.threads {
		if t.finishedAt == 0 {
			return false
		}
	}
	return true
}

// Tick advances the core by one cycle. The caller must have run the event
// queue up to now first.
func (c *CPU) Tick(now uint64) {
	c.Cycles++
	c.acted = false
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
	c.drainStores(now)
}

// Acted reports whether the last Tick made real progress (fetched,
// dispatched, issued, committed, or drained anything). It is a performance
// hint for the run loop — a working machine is rarely about to go quiet, so
// the loop can defer the full ProbeQuiet probe until a Tick comes back idle.
// Correctness never depends on it: a false negative merely delays a skip
// window by a cycle, and skipping less is always exact.
func (c *CPU) Acted() bool { return c.acted }

// meta builds the thread-state snapshot piggybacked on memory requests.
func (c *CPU) meta(t *thread, critical bool) cache.Meta {
	return cache.Meta{
		Thread:   t.id,
		Critical: critical,
		State: mem.ThreadState{
			Outstanding:  t.liveLoads,
			ROBOccupancy: t.robCount(),
			IQOccupancy:  t.iqInt,
		},
	}
}

// ---------------------------------------------------------------- fetch

func (c *CPU) fetch(now uint64) {
	order := c.fetchOrder(now)
	if len(order) > c.cfg.FetchMaxThreads {
		order = order[:c.cfg.FetchMaxThreads]
	}
	budget := c.cfg.FetchWidth
	for _, t := range order {
		if budget == 0 {
			break
		}
		budget = c.fetchThread(now, t, budget)
	}
}

// fetchThread fetches up to budget instructions for t, stopping at a taken
// branch, an I-cache line miss, or a full frontend. It returns the remaining
// budget.
func (c *CPU) fetchThread(now uint64, t *thread, budget int) int {
	for budget > 0 && t.feLen() < c.cfg.FrontendCap {
		in := t.next()
		line := in.PC &^ 63
		if line != t.curILine {
			f := c.getIFill()
			f.t, f.line, f.epoch = t, line, t.epoch
			hit, accepted := c.l1i.Probe(now, line, c.meta(t, false), f)
			if hit || !accepted {
				// The cache retains the callback only for an accepted miss.
				f.t = nil
				c.freeIFills = append(c.freeIFills, f)
			}
			if !hit {
				if accepted {
					t.imissPending = true
					t.imisses++
					c.acted = true
				}
				return budget // stalls this thread; instruction stays peeked
			}
			t.curILine = line
		}
		inst := t.consume()
		t.fePush(feEntry{in: inst, readyAt: now + c.cfg.FrontendDelay})
		budget--
		c.acted = true
		if inst.Kind == workload.Branch && inst.Taken {
			break // a taken branch ends the fetch block
		}
	}
	return budget
}

// ---------------------------------------------------------------- dispatch

func (c *CPU) dispatch(now uint64) {
	budget := c.cfg.DispatchWidth
	n := len(c.threads)
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[(i+c.rrDispatch)%n]
		for budget > 0 {
			if t.feLen() == 0 || t.frontend[t.feHead].readyAt > now {
				break
			}
			if c.dispatchGated(now, t) {
				t.gated++
				break
			}
			if !c.dispatchOne(t) {
				break
			}
			budget--
			c.acted = true
		}
	}
	c.rrDispatch++
}

// dispatchGated applies the fetch policies' resource feedback at the
// dispatch stage: when the shared issue queues are under pressure, a thread
// the policy considers stalled may not grow its share past an allowance.
//
// Under the miss-aware policies (FetchStall, DG, DWarn) the allowance is
// MissIQAllowance for threads experiencing a miss. Under ICOUNT the
// allowance is the equal share of the queues — ICOUNT's priority function
// drives every thread's in-flight count toward the mean, which caps a
// stalled thread's occupancy near the equal-share point but no lower; this
// is exactly why ICOUNT survives at 2–4 threads but clogs on 8-thread MEM
// mixes in the paper, where even equal shares saturate the queues.
func (c *CPU) dispatchGated(now uint64, t *thread) bool {
	n := len(c.threads)
	if n == 1 {
		return false
	}
	total := c.cfg.IntIQ + c.cfg.FPIQ
	switch c.cfg.Policy {
	case FetchStall, DG, DWarn, Coop:
		return c.hasMiss(now, t) && t.iqInt+t.iqFP >= c.missAllowance(total, n)
	case ICOUNT, RoundRobin:
		// ICOUNT's fetch feedback equalizes per-thread in-flight counts at
		// an equilibrium set by the front-end depth, independent of thread
		// count: roughly a quarter of the queue capacity here. With few
		// threads that leaves slack; with eight threads the equal shares sum
		// to well past capacity — ICOUNT clogs, exactly as in the paper.
		return t.iqInt+t.iqFP >= total/4
	default:
		return false
	}
}

// missAllowance is the issue-queue share a stalled thread may keep under the
// miss-aware policies: half its equal share, floored at MissIQAllowance. At
// two threads this leaves plenty of memory-level parallelism to the stalled
// thread (the queues are not contended); at eight it pins stalled threads to
// the floor, which is where the policies' anti-clog value shows.
func (c *CPU) missAllowance(total, threads int) int {
	share := total / (2 * threads)
	if share < c.cfg.MissIQAllowance {
		return c.cfg.MissIQAllowance
	}
	return share
}

// dispatchOne moves t's oldest frontend instruction into the ROB and issue
// queue; it returns false when a resource (ROB, IQ, LSQ) is exhausted.
func (c *CPU) dispatchOne(t *thread) bool {
	if !c.couldDispatchHead(t) {
		return false
	}
	in := &t.frontend[t.feHead].in
	fp := in.Kind == workload.FPOp
	seq := t.nextSeq
	t.nextSeq++
	u := &t.rob[seq%uint64(len(t.rob))]
	u.in = *in
	u.seq, u.epoch, u.tid, u.state, u.doneAt, u.issuedAt = seq, t.epoch, int32(t.id), stWaiting, pendingDone, 0
	u.dep1, u.dep2 = depSeq(seq, in.Dep1), depSeq(seq, in.Dep2)
	c.stamp++
	u.stamp = c.stamp
	c.enqueue(t, u)

	if fp {
		c.fpIQUsed++
		t.iqFP++
	} else {
		c.intIQUsed++
		t.iqInt++
	}
	switch in.Kind {
	case workload.Load:
		c.lqUsed++
		t.lq++
	case workload.Store:
		c.sqUsed++
		t.sq++
	}
	t.feHead++
	if t.feHead == len(t.frontend) {
		t.frontend = t.frontend[:0]
		t.feHead = 0
	}
	return true
}

func depSeq(seq uint64, dist int) uint64 {
	if dist <= 0 || uint64(dist) > seq {
		return noDep
	}
	return seq - uint64(dist)
}

// ---------------------------------------------------------------- issue

// Issue is wakeup/select (DESIGN §11). Dispatch links a uop onto the
// consumer list of each producer still waiting on landed work (an unissued
// one, an in-flight load); the producer's issue or fill resolves the link. A
// uop with no dependence left pending is scheduled for readyAt: into the
// ready set once that has passed, until then into the wake ring. Select
// walks only the ready set, oldest stamp first: the dispatch order.

const (
	ringSize = 16 // a power of two above the 1/4/7-cycle ALU latencies
	noLink   = ^uint32(0)
)

// wakeRef names a scheduled uop. The stamp tells a live entry from one whose
// uop was squashed (and possibly its slot re-dispatched) since.
type wakeRef struct {
	u     *uop
	stamp uint64
}

func (e wakeRef) live() bool { return e.u.stamp == e.stamp && e.u.epoch != ^uint64(0) }

// enqueue files a dispatched uop: each dependence either resolves now or
// links u onto its producer's consumer list. A thread dispatches in sequence
// order, so the lists stay youngest-first, which unlinkSquashed relies on.
func (c *CPU) enqueue(t *thread, u *uop) {
	u.readyAt, u.pending, u.cons, u.next = 0, 0, noLink, [2]uint32{noLink, noLink}
	for k, dep := range [2]uint64{u.dep1, u.dep2} {
		if r := t.depReadyAt(dep); r != ^uint64(0) {
			u.readyAt = max(u.readyAt, r)
			continue
		}
		p := &t.rob[dep%uint64(len(t.rob))]
		u.next[k] = p.cons
		p.cons = uint32(u.seq%uint64(len(t.rob)))<<1 | uint32(k)
		u.pending++
	}
	if u.pending == 0 {
		c.schedule(u)
	}
}

// wakeConsumers resolves the dependences on p, which now has a completion
// time.
func (c *CPU) wakeConsumers(t *thread, p *uop) {
	for l := p.cons; l != noLink; {
		v := &t.rob[l>>1]
		l = v.next[l&1]
		v.readyAt = max(v.readyAt, p.doneAt)
		if v.pending--; v.pending == 0 {
			c.schedule(v)
		}
	}
	p.cons = noLink
}

// unlinkSquashed drops the links of consumers younger than keep (squashed)
// from producer dep's list; the list is youngest-first, so they are a prefix.
func (t *thread) unlinkSquashed(dep, keep uint64) {
	if dep == noDep || dep > keep || dep < t.headSeq {
		return
	}
	p := &t.rob[dep%uint64(len(t.rob))]
	for p.seq == dep && p.cons != noLink && t.rob[p.cons>>1].seq > keep {
		p.cons = t.rob[p.cons>>1].next[p.cons&1]
	}
}

// schedule files u, whose dependences have all resolved, for readyAt.
func (c *CPU) schedule(u *uop) {
	e := wakeRef{u, u.stamp}
	if u.readyAt <= c.drained {
		c.insertReady(e)
		return
	}
	b := &c.ring[u.readyAt%ringSize]
	*b = append(*b, e)
	c.ringN++
}

// insertReady keeps the ready set in stamp order.
func (c *CPU) insertReady(e wakeRef) {
	i := len(c.ready)
	c.ready = append(c.ready, e)
	for ; i > 0 && c.ready[i-1].stamp > e.stamp; i-- {
		c.ready[i] = c.ready[i-1]
	}
	c.ready[i] = e
}

// drainRing moves the ring entries due by now into the ready set: those in
// the buckets of the cycles since the last drain, at most one lap. Entries
// more than a lap ahead share a bucket with nearer ones and stay put.
func (c *CPU) drainRing(now uint64) {
	for cyc := max(c.drained+1, now-min(now, ringSize-1)); cyc <= now && c.ringN > 0; cyc++ {
		b := &c.ring[cyc%ringSize]
		keep := (*b)[:0]
		for _, e := range *b {
			switch {
			case !e.live():
				c.ringN--
			case e.u.readyAt <= now:
				c.ringN--
				c.insertReady(e)
			default:
				keep = append(keep, e)
			}
		}
		*b = keep
	}
	c.drained = now
}

func (c *CPU) issue(now uint64) {
	c.drainRing(now)
	// This cycle's budgets: width[fp] is the int/FP issue width, and
	// units[2*fp+long] the int/FP ALU and multiplier pools.
	width := [2]int{c.cfg.IntIssueWidth, c.cfg.FPIssueWidth}
	units := [4]int{c.cfg.IntALU, c.cfg.IntMult, c.cfg.FPALU, c.cfg.FPMult}
	keep := c.ready[:0]
	for i, e := range c.ready {
		if !e.live() {
			continue // squashed: drop
		}
		if width[0] == 0 && width[1] == 0 {
			keep = append(keep, c.ready[i:]...)
			break
		}
		u := e.u
		fp, pool := 0, 0
		if u.in.Kind == workload.FPOp {
			fp, pool = 1, 2
		}
		if u.in.Lat >= 7 {
			pool++
		}
		if width[fp] == 0 || units[pool] == 0 {
			keep = append(keep, e)
			continue
		}
		width[fp]--
		units[pool]--
		t := c.threads[u.tid]
		if u.in.Kind == workload.Load {
			if !c.issueLoad(now, t, u) {
				width[0]++ // MSHR full: undo the slot and retry next cycle
				units[0]++
				keep = append(keep, e)
				continue
			}
		} else {
			c.issueALU(now, t, u)
		}
		c.acted = true
		if fp == 1 {
			c.fpIQUsed--
			t.iqFP--
		} else {
			c.intIQUsed--
			t.iqInt--
		}
	}
	c.ready = keep
}

func (c *CPU) issueALU(now uint64, t *thread, u *uop) {
	u.state = stIssued
	u.issuedAt = now
	u.doneAt = now + uint64(u.in.Lat)
	switch u.in.Kind {
	case workload.Store:
		t.stores++
		u.doneAt = now + 1 // address generation; data written at commit
	case workload.Branch:
		if u.in.Mispredict {
			e := c.getBrEvent()
			e.t, e.seq, e.epoch = t, u.seq, u.epoch
			c.q.ScheduleHandler(u.doneAt, e)
		}
	}
	c.wakeConsumers(t, u)
}

func (c *CPU) issueLoad(now uint64, t *thread, u *uop) bool {
	f := c.getLoadFill()
	f.t, f.seq, f.epoch = t, u.seq, u.epoch
	ok := c.l1d.ReadLine(now+1, u.in.Addr, c.meta(t, true), f)
	if !ok {
		f.t = nil
		c.freeLoadFills = append(c.freeLoadFills, f)
		return false
	}
	u.state = stIssued
	u.issuedAt = now
	u.doneAt = pendingDone
	t.loads++
	t.liveLoads++
	t.inFlight = append(t.inFlight, u)
	return true
}

// ---------------------------------------------------------------- branches

// resolveBranch fires when a mispredicted branch finishes executing: all
// younger instructions of the thread are squashed and queued for replay, and
// fetch stalls for the mispredict penalty.
func (c *CPU) resolveBranch(now uint64, t *thread, seq, epoch uint64) {
	u := &t.rob[seq%uint64(len(t.rob))]
	if u.seq != seq || u.epoch != epoch {
		return // itself squashed by an older branch first
	}
	t.squashes++

	// Collect the squashed suffix (ROB entries younger than the branch,
	// then the frontend, then the peeked instruction) for replay, ahead of
	// anything already queued for replay. The list is built in the thread's
	// spare buffer, which then swaps with the old replay slice.
	replay := t.replayScratch[:0]
	for s := seq + 1; s < t.nextSeq; s++ {
		v := &t.rob[s%uint64(len(t.rob))]
		replay = append(replay, v.in)
		c.releaseSquashed(t, v, seq)
		v.epoch = ^uint64(0) // poison: stale wakeRefs and callbacks miss
	}
	for _, fe := range t.frontend[t.feHead:] {
		replay = append(replay, fe.in)
	}
	if t.hasPeeked {
		replay = append(replay, t.peeked)
		t.hasPeeked = false
	}
	replay = append(replay, t.replay...)
	t.replayScratch = t.replay[:0]
	t.replay = replay
	t.frontend = t.frontend[:0]
	t.feHead = 0
	t.nextSeq = seq + 1
	t.epoch++
	t.imissPending = false
	t.curILine = ^uint64(0)
	t.fetchBlockedUntil = now + c.cfg.MispredictPenalty

	// Drop squashed loads from the in-flight list (everything younger than
	// the branch; older loads, whatever epoch they were fetched in, stay).
	kept := t.inFlight[:0]
	for _, v := range t.inFlight {
		if v.seq <= seq && v.epoch != ^uint64(0) {
			kept = append(kept, v)
		}
	}
	t.inFlight = kept
}

// releaseSquashed returns a squashed uop's queue resources and unlinks it
// from the consumer lists of producers that survive (seq <= keep).
func (c *CPU) releaseSquashed(t *thread, v *uop, keep uint64) {
	if v.state == stWaiting {
		t.unlinkSquashed(v.dep1, keep)
		t.unlinkSquashed(v.dep2, keep)
		if v.in.Kind == workload.FPOp {
			c.fpIQUsed--
			t.iqFP--
		} else {
			c.intIQUsed--
			t.iqInt--
		}
	}
	switch v.in.Kind {
	case workload.Load:
		c.lqUsed--
		t.lq--
		if v.state == stIssued && v.doneAt == pendingDone {
			t.liveLoads--
		}
	case workload.Store:
		c.sqUsed--
		t.sq--
	}
}

// ---------------------------------------------------------------- commit

func (c *CPU) commit(now uint64) {
	budget := c.cfg.CommitWidth
	n := len(c.threads)
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[(i+c.rrCommit)%n]
		for budget > 0 && t.robCount() > 0 {
			u := &t.rob[t.headSeq%uint64(len(t.rob))]
			if u.state == stIssued && u.doneAt <= now {
				u.state = stDone
			}
			if u.state != stDone {
				break
			}
			if u.in.Kind == workload.Store {
				if len(c.pendingStores)-c.psHead >= c.cfg.SQ {
					break // store buffer full: stall commit
				}
				c.psPush(pendingStore{addr: u.in.Addr, meta: c.meta(t, false)})
				c.sqUsed--
				t.sq--
			}
			if u.in.Kind == workload.Load {
				c.lqUsed--
				t.lq--
			}
			t.headSeq++
			t.committed++
			c.TotalCommitted++
			budget--
			c.acted = true
			if t.warmedAt == 0 && t.committed >= c.warmup {
				t.warmedAt = now
			}
			if t.finishedAt == 0 && c.target > 0 && t.committed >= c.warmup+c.target {
				t.finishedAt = now
			}
		}
	}
	c.rrCommit++
}

// psPush appends to the committed-store deque, reclaiming drained head space
// rather than growing the buffer.
func (c *CPU) psPush(s pendingStore) {
	if c.psHead > 0 && len(c.pendingStores) == cap(c.pendingStores) {
		n := copy(c.pendingStores, c.pendingStores[c.psHead:])
		c.pendingStores = c.pendingStores[:n]
		c.psHead = 0
	}
	c.pendingStores = append(c.pendingStores, s)
}

// drainStores pushes committed stores into the L1D; MSHR backpressure keeps
// them buffered.
func (c *CPU) drainStores(now uint64) {
	for c.psHead < len(c.pendingStores) {
		s := c.pendingStores[c.psHead]
		if !c.l1d.Store(now, s.addr, s.meta) {
			return
		}
		c.psHead++
		c.acted = true
	}
	c.pendingStores = c.pendingStores[:0]
	c.psHead = 0
}
