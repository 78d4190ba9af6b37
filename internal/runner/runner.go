// Package runner provides the bounded worker pool that fans independent
// simulations out across GOMAXPROCS goroutines. Every simulated machine is
// still one goroutine (the event.Queue contract: a Queue is single-threaded);
// the pool only exploits the parallelism *between* machines — the dozens of
// independent core.Run calls behind every figure of the paper's evaluation.
//
// Determinism contract: Submit returns a Future immediately, and results are
// consumed by Wait-ing futures in submission order on the submitting
// goroutine. Each simulation is a pure function of its Config (private
// event queue, private rng), so the assembled output is byte-identical to a
// sequential run regardless of the completion order of the workers. A pool
// with Jobs()==1 degenerates to lazy inline execution: each job runs on the
// submitting goroutine at its future's first Wait — exactly the pre-pool
// compute/collect interleaving, with no goroutines involved.
package runner

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Pool bounds how many submitted jobs run concurrently.
type Pool struct {
	jobs int
	sem  chan struct{}
	// instr, when set, observes every pooled job's slot wait (submission →
	// worker-slot acquisition). See Instrument.
	instr func(name string, wait time.Duration)
}

// New builds a pool running up to jobs submissions concurrently. jobs < 1
// selects runtime.GOMAXPROCS(0). A 1-job pool runs each submission inline,
// deferred to its future's first Wait.
func New(jobs int) *Pool {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: jobs}
	if jobs > 1 {
		p.sem = make(chan struct{}, jobs)
	}
	return p
}

// Sequential is the inline-execution pool; each job runs on the submitting
// goroutine when its future is first Waited.
func Sequential() *Pool { return New(1) }

// NewPooled builds a pool that always runs submissions on worker goroutines,
// even at jobs == 1. The serving daemon needs this form: its futures are
// awaited from per-flight goroutines, so lazy inline execution — which
// assumes the submitting goroutine does the waiting, and whose Future is not
// safe for concurrent Waits — would both race and break the concurrency
// bound. jobs < 1 selects runtime.GOMAXPROCS(0).
func NewPooled(jobs int) *Pool {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Pool{jobs: jobs, sem: make(chan struct{}, jobs)}
}

// Jobs reports the concurrency bound.
func (p *Pool) Jobs() int { return p.jobs }

// Instrument installs a queue-wait observer: fn fires on the worker goroutine
// the moment a pooled job acquires its slot, carrying the job's label and how
// long it sat queued behind the concurrency bound. The serving daemon feeds
// this into its pool-wait histogram. fn must be safe to call from many worker
// goroutines at once. Lazy (1-job) pools never queue, so fn never fires for
// them. Install before the first Submit; later installation races with
// in-flight jobs reading the hook.
func (p *Pool) Instrument(fn func(name string, wait time.Duration)) { p.instr = fn }

// Future is the pending result of one submitted job.
type Future[T any] struct {
	fn   func() (T, error) // non-nil: lazy (1-job pool), runs at first Wait
	done chan struct{}     // non-nil: running on a worker goroutine
	val  T
	err  error
}

// Wait returns the job's result, blocking until the worker finishes (pooled
// jobs) or running the job now (1-job pools, which defer execution to Wait so
// sequential mode interleaves compute and collection exactly like a plain
// loop). Wait may be called more than once; lazy futures must be awaited on
// the submitting goroutine, pooled futures from anywhere.
func (f *Future[T]) Wait() (T, error) {
	if f.fn != nil {
		fn := f.fn
		f.fn = nil
		f.val, f.err = fn()
	} else if f.done != nil {
		<-f.done
	}
	return f.val, f.err
}

// Resolved builds an already-completed future carrying v. Memo and the
// figures baseline cache use it to hand out cached values through the same
// Wait interface.
func Resolved[T any](v T, err error) *Future[T] {
	return &Future[T]{val: v, err: err}
}

// PanicError is the error a Future carries when its job panicked. The panic
// is confined to that one future — the pool, the process, and every other
// submitted job keep running — and the error preserves everything needed to
// debug the crash offline: the job's label (drivers pass the config
// fingerprint), the panic value, and the goroutine stack at the panic site.
type PanicError struct {
	// Job is the label passed to SubmitNamed ("" for unnamed submissions).
	Job string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	job := e.Job
	if job == "" {
		job = "job"
	}
	return fmt.Sprintf("runner: %s panicked: %v\n%s", job, e.Value, e.Stack)
}

// guard runs fn, converting a panic into a *PanicError so one crashing
// simulation cannot take down a whole sweep. It covers both execution paths:
// pooled worker goroutines (where an unrecovered panic would kill the
// process) and lazy Wait-time execution on the submitting goroutine.
func guard[T any](name string, fn func() (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: name, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Submit schedules fn on the pool and returns its future. On a 1-job pool fn
// is deferred until the future's first Wait (on the calling goroutine);
// otherwise it runs on a worker goroutine once a slot frees up. fn must not
// Wait on other futures of the same pool (a job waiting on an unscheduled job
// could deadlock a full pool); waiting belongs on the submitting goroutine.
// A panicking fn fails only its own future (see PanicError).
func Submit[T any](p *Pool, fn func() (T, error)) *Future[T] {
	return SubmitNamed(p, "", fn)
}

// SubmitNamed is Submit with a job label that identifies the submission in
// PanicError should fn crash. Drivers running many configurations pass each
// config's fingerprint so a panic names the exact run that died.
func SubmitNamed[T any](p *Pool, name string, fn func() (T, error)) *Future[T] {
	return SubmitNamedCtx(p, context.Background(), name, func(context.Context) (T, error) { return fn() })
}

// SubmitCtx is SubmitNamedCtx without a job label.
func SubmitCtx[T any](p *Pool, ctx context.Context, fn func(context.Context) (T, error)) *Future[T] {
	return SubmitNamedCtx(p, ctx, "", fn)
}

// SubmitNamedCtx schedules fn with a cancellation context. A job whose ctx is
// cancelled while it is still queued (waiting for a pool slot, or awaiting a
// lazy Wait) resolves to ctx.Err() without ever running fn, so abandoned work
// costs no CPU; a job already running receives ctx and is expected to observe
// the cancellation itself (core.Simulator.RunContext checks it at its
// watchdog boundaries). Cancellation never poisons the pool: the slot is
// released as usual and later submissions run normally.
func SubmitNamedCtx[T any](p *Pool, ctx context.Context, name string, fn func(context.Context) (T, error)) *Future[T] {
	return submit(p, ctx, name, fn, nil)
}

// submit is SubmitNamedCtx with a landing hook: land, when non-nil, sees the
// job's outcome — a cancellation while queued included — before any Wait
// returns it. Memo lands each flight through it.
func submit[T any](p *Pool, ctx context.Context, name string, fn func(context.Context) (T, error), land func(T, error)) *Future[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	run := func() (v T, err error) {
		if err = ctx.Err(); err == nil {
			v, err = guard(name, func() (T, error) { return fn(ctx) })
		}
		if land != nil {
			land(v, err)
		}
		return v, err
	}
	if p.sem == nil {
		return &Future[T]{fn: run}
	}
	f := &Future[T]{done: make(chan struct{})}
	queued := time.Now()
	go func() {
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			f.val, f.err = run() // resolves to ctx.Err() without calling fn
			close(f.done)
			return
		}
		defer func() { <-p.sem }()
		if p.instr != nil {
			p.instr(name, time.Since(queued))
		}
		f.val, f.err = run()
		close(f.done)
	}()
	return f
}

// Memo is a concurrency-safe, single-flight memoization table with one LRU
// tier of resolved values. The first Get for a key submits the compute job;
// every Get while it runs joins the same future; its success then moves into
// the LRU, where later Gets find it without computing. It is the one memory
// tier behind every repeated run: the figures package's alone-IPC baselines,
// the warmup checkpoints (internal/checkpoint), and the serving daemon's
// result cache, whose disk and peer tiers promote into it through Peek/Add.
//
// Only successes are kept. A fn that returns an error, panics, or is
// cancelled before it runs is dropped the moment it fails: Gets already
// holding the future still see the failure (that flight is shared), but a
// later Get with the same key re-executes instead of replaying a stale error.
//
// SetCap chooses the retention: unbounded (the default, 0), bounded to n
// resolved values with least-recently-used eviction (n > 0), or nothing at
// all (n < 0: single-flight only). The cap counts resolved values alone, so
// in-flight work is never evicted.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	// flights holds the running work; a flight leaves it when it lands.
	flights map[K]*Future[V]
	// vals indexes order, the resolved values, most recently used in front.
	vals    map[K]*list.Element
	order   list.List
	cap     int
	evicted uint64 // cap-driven removals over the memo's lifetime
}

// memoEntry is one resolved value in a Memo's LRU order.
type memoEntry[K comparable, V any] struct {
	key K
	val V
}

// SetCap sets the retention: n > 0 keeps the n most recently used values,
// 0 keeps every value, n < 0 keeps none. Safe to call at any time; an
// over-cap memo sheds entries on its next insertion, not immediately.
func (m *Memo[K, V]) SetCap(n int) {
	m.mu.Lock()
	m.cap = n
	m.mu.Unlock()
}

// Evictions reports how many values the cap has evicted.
func (m *Memo[K, V]) Evictions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evicted
}

// Get returns the future for key, submitting fn on p only when key is
// neither resolved nor in flight.
func (m *Memo[K, V]) Get(p *Pool, key K, fn func() (V, error)) *Future[V] {
	f, _ := m.GetCtx(p, context.Background(), key, func(context.Context) (V, error) { return fn() })
	return f
}

// GetCtx is Get with a cancellation context for the submitted job and a
// report of whether this call started the flight (created) or found the key
// resolved or in flight — the daemon's dedup signal. The context belongs to
// the flight, not the caller: it is the first Get's ctx that governs the
// run, so callers sharing a flight must manage a joint context themselves
// (the server refcounts one per fingerprint).
func (m *Memo[K, V]) GetCtx(p *Pool, ctx context.Context, key K, fn func(context.Context) (V, error)) (f *Future[V], created bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.peekLocked(key); ok {
		return Resolved(v, nil), false
	}
	if f, ok := m.flights[key]; ok {
		return f, false
	}
	if m.flights == nil {
		m.flights = make(map[K]*Future[V])
	}
	f = submit(p, ctx, "", fn, func(v V, err error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.flights[key] != f {
			return // forgotten mid-flight
		}
		delete(m.flights, key)
		if err == nil {
			m.addLocked(key, v)
		}
	})
	m.flights[key] = f
	return f, true
}

// Peek returns key's resolved value, promoting it, without computing or
// joining a flight.
func (m *Memo[K, V]) Peek(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peekLocked(key)
}

func (m *Memo[K, V]) peekLocked(key K) (v V, ok bool) {
	el, ok := m.vals[key]
	if !ok {
		return v, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry[K, V]).val, true
}

// Add stores v as key's resolved value without computing — how a slower tier
// (a disk store, a fleet peer) promotes a hit. Re-adding a key refreshes its
// value and recency.
func (m *Memo[K, V]) Add(key K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addLocked(key, v)
}

func (m *Memo[K, V]) addLocked(key K, v V) {
	if m.cap < 0 {
		return
	}
	if el, ok := m.vals[key]; ok {
		el.Value.(*memoEntry[K, V]).val = v
		m.order.MoveToFront(el)
		return
	}
	if m.vals == nil {
		m.vals = make(map[K]*list.Element)
	}
	m.vals[key] = m.order.PushFront(&memoEntry[K, V]{key: key, val: v})
	for m.cap > 0 && m.order.Len() > m.cap {
		m.removeLocked(m.order.Back())
		m.evicted++
	}
}

func (m *Memo[K, V]) removeLocked(el *list.Element) {
	m.order.Remove(el)
	delete(m.vals, el.Value.(*memoEntry[K, V]).key)
}

// Forget drops key — resolved or in flight — so the next Get re-executes. A
// forgotten flight still resolves for its waiters but is not kept.
func (m *Memo[K, V]) Forget(key K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.flights, key)
	if el, ok := m.vals[key]; ok {
		m.removeLocked(el)
	}
}

// Len reports how many resolved values the memo holds; flights in progress
// are not counted.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}
