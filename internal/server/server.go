// Package server is the simulation-as-a-service daemon behind cmd/smtdramd:
// an HTTP/JSON API that accepts simulation and figure-sweep submissions,
// runs them on a bounded worker pool, and serves results from one
// fingerprint-keyed single-flight memo: identical in-flight requests share a
// run, and finished results stay in its LRU.
//
// The serving contract mirrors the CLI exactly: a submitted configuration
// produces a core.Result byte-identical to `smtdram -json` with the same
// knobs, because both paths build the same core.Config and marshal the same
// struct. On top of that the daemon adds the serving machinery a sweep
// workload wants: admission control (429 + Retry-After when the queue is
// full), request dedup (two identical in-flight submissions share one
// simulation), result caching (a repeated configuration is answered without
// simulating), per-job cancellation threaded into the run loop, streaming
// progress over SSE, Prometheus metrics, and graceful drain.
//
// Endpoints:
//
//	POST   /v1/sim             submit a simulation (SimRequest) -> JobStatus
//	POST   /v1/figures         submit a figure sweep (FigRequest) -> JobStatus
//	GET    /v1/jobs/{id}       poll a job -> JobStatus (result inline when done)
//	GET    /v1/jobs/{id}/result raw result bytes (the byte-identical payload)
//	GET    /v1/jobs/{id}/events SSE progress stream (progress*, then done)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/trace Chrome trace_event JSON for one job (wall + cycle domains)
//	GET    /v1/stats           JSON stats snapshot (per-phase latency percentiles)
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            pure liveness (200 whenever the process serves)
//	GET    /readyz             readiness: 503 during drain, journal recovery, or store-degraded mode
//	GET    /debug/trace        Chrome trace_event JSON of the whole span buffer
//	GET    /debug/dash         live HTML dashboard (SSE-fed)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/obs"
	"smtdram/internal/runner"
	"smtdram/internal/store"
)

// Config tunes the daemon.
type Config struct {
	// QueueDepth bounds how many jobs may be queued or running at once
	// (admission control; default 64). Submissions beyond it get 429.
	QueueDepth int
	// Workers bounds how many simulations run concurrently (default
	// GOMAXPROCS). Figure sweeps use the same value for their internal
	// parallelism.
	Workers int
	// CacheEntries is the result cache capacity (default 256; 0 keeps the
	// default, negative disables caching but keeps in-flight dedup).
	CacheEntries int
	// ProgressInterval is the minimum simulated-cycle gap between streamed
	// progress samples (default 10 000).
	ProgressInterval uint64
	// MaxTrackedJobs bounds the job table; the oldest finished jobs are
	// forgotten beyond it (default 4096).
	MaxTrackedJobs int
	// SpanCapacity bounds the wall-clock span buffer behind /debug/trace and
	// the per-job traces; the oldest finished spans fall off first (default
	// 8192).
	SpanCapacity int
	// Logger receives structured lifecycle logs with job/flight correlation
	// keys. Nil discards all logging.
	Logger *slog.Logger
	// DataDir enables the durability layer: a content-addressed on-disk
	// result store and a write-ahead job journal live under it, and startup
	// replays the journal to recover jobs interrupted by a crash. Empty
	// keeps the daemon memory-only.
	DataDir string
	// Fsync is the store/journal flush policy. The default (off) is durable
	// against process death — SIGKILL included — because writes have crossed
	// into the kernel; FsyncAlways additionally survives OS crash and power
	// loss.
	Fsync store.FsyncPolicy
	// CheckpointDir persists warmup checkpoints (DESIGN §15) under its own
	// content-addressed store, so figure sweeps fork warm re-runs across
	// daemon restarts. Empty keeps warmup memoization in-memory only.
	CheckpointDir string
	// NodeID names this daemon in a fleet (DESIGN §16). When set, job ids
	// become "j-<node>-<n>" so a coordinator can route job lookups
	// statelessly, and /metrics and /v1/stats carry node_id/role labels.
	// Must not contain '-'; empty means a standalone daemon.
	NodeID string
	// PeerFetch, when non-nil, adds the peering tier to the cache ladder:
	// on a local store miss the daemon asks fleet peers for the entry before
	// computing. internal/fleet provides the implementation.
	PeerFetch PeerFetcher
	// PeerTimeout bounds one peer fetch (default 2s).
	PeerTimeout time.Duration
	// Admission, when non-nil, layers per-tenant token buckets and two-level
	// priority admission in front of the bounded queue.
	Admission Admission
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.ProgressInterval == 0 {
		c.ProgressInterval = 10_000
	}
	if c.MaxTrackedJobs <= 0 {
		c.MaxTrackedJobs = 4096
	}
	if c.SpanCapacity <= 0 {
		c.SpanCapacity = 8192
	}
	return c
}

// checkpointEntries bounds the daemon's in-memory warmup-checkpoint tier; a
// configured CheckpointDir re-reads evicted entries from disk.
const checkpointEntries = 64

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SkipInfo is the wire form of a run's two-speed-clock summary (obs.SkipStats
// plus the derived rate). It rides beside the result — in JobStatus, in
// X-Smtdram-Skip-* headers on /result, and in the /v1/stats aggregate — never
// inside it: the result payload stays byte-identical to the CLI's -json
// output, which byte-identity gates compare against.
type SkipInfo struct {
	// Skipped is the number of cycles fast-forwarded over; Wall is the run's
	// total wall-clock simulation cycles (warmup included).
	Skipped uint64 `json:"skipped_cycles"`
	Wall    uint64 `json:"wall_cycles"`
	// Segments counts contiguous skip windows; Longest is the largest one.
	Segments uint64 `json:"segments"`
	Longest  uint64 `json:"longest"`
	// Rate is Skipped/Wall.
	Rate float64 `json:"rate"`
}

// skipInfoOf converts a run's SkipStats for the wire; nil when the run never
// engaged the two-speed clock (disabled, or a zero-cycle run).
func skipInfoOf(st obs.SkipStats) *SkipInfo {
	if st.Wall == 0 {
		return nil
	}
	return &SkipInfo{
		Skipped: st.Skipped, Wall: st.Wall,
		Segments: st.Segments, Longest: st.Longest,
		Rate: st.Rate(),
	}
}

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       State  `json:"state"`
	Fingerprint string `json:"fingerprint"`
	// Cached marks a submission answered straight from the result cache;
	// Deduped marks one that joined another submission's in-flight run; Peer
	// marks a cached answer whose bytes were fetched from a fleet peer.
	Cached  bool `json:"cached,omitempty"`
	Deduped bool `json:"deduped,omitempty"`
	Peer    bool `json:"peer,omitempty"`
	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
	// Result is the raw result payload, present once State is done.
	Result json.RawMessage `json:"result,omitempty"`
	// Progress is the latest streamed progress sample, if any arrived.
	Progress json.RawMessage `json:"progress,omitempty"`
	// Skip is the run's two-speed-clock summary, present on done simulation
	// jobs (cached answers replay the producing run's). Figure sweeps, which
	// aggregate many runs, omit it.
	Skip *SkipInfo `json:"skip,omitempty"`
}

// job is one tracked submission.
type job struct {
	id      string
	kind    string // "sim" or "figure"
	fp      string
	created time.Time // submit-entry instant; anchors the phase accounting
	deduped bool
	cached  bool
	peer    bool

	// Tracing state, written under Server.mu before the job is reachable (or,
	// for simEvents, by awaitFlight under Server.mu before detaching): the
	// job's root span, its queue-wait child, the flight it rode, and — for
	// traced simulations — the cycle-domain lifecycle events correlated into
	// the per-job trace.
	span      *obs.Span
	queueSpan *obs.Span
	flightID  string
	simEvents []obs.Event
	simStart  time.Time

	// tAdmitted is set under Server.mu pre-publication; tRunStart under
	// job.mu (markRunning), or pre-publication for jobs joining a started
	// flight. With created and the finish instant they telescope: admission +
	// queue + run + respond == end-to-end, exactly.
	tAdmitted time.Time
	tRunStart time.Time

	// flight is the in-flight computation this job is attached to (nil once
	// resolved or detached). Guarded by Server.mu.
	flight *flight

	mu        sync.Mutex
	state     State
	result    []byte
	errMsg    string
	progress  []byte
	skip      *SkipInfo // set with result (or pre-publication for cached jobs)
	subs      []chan []byte
	slotFreed bool
	// classRelease returns the job's priority-class slot (Config.Admission);
	// releaseSlot runs it exactly once, with the admission token.
	classRelease func()
}

// status snapshots the job for the wire. includeResult controls whether the
// (possibly large) result payload rides along.
func (j *job) status(includeResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: j.state, Fingerprint: j.fp,
		Cached: j.cached, Deduped: j.deduped, Peer: j.peer, Error: j.errMsg,
		Progress: j.progress,
	}
	if j.state == StateDone {
		st.Skip = j.skip
	}
	if includeResult && j.state == StateDone {
		st.Result = j.result
	}
	return st
}

// answer is one memoized result: the byte-identical payload plus the
// producing run's skip summary (nil for figure sweeps), which cached answers
// replay beside the payload.
type answer struct {
	val  json.RawMessage
	skip *SkipInfo
}

// flightFn builds a flight's compute function once the flight exists, so
// the run can report progress and state to the jobs riding it.
type flightFn func(*flight) func(context.Context) (json.RawMessage, error)

// flight is one in-flight computation, shared by every job submitted with
// the same fingerprint while it runs. Exactly one goroutine (awaitFlight)
// waits on the future, so the pool's lazy single-worker mode stays safe.
type flight struct {
	id     string // "f-N", the trace correlation key shared by deduped jobs
	fp     string
	ctx    context.Context
	cancel context.CancelFunc
	fut    *runner.Future[answer]
	// refs counts attached (undetached) jobs; the last cancellation cancels
	// the context. jobs lists them for progress broadcast and completion.
	// Both guarded by Server.mu.
	refs    int
	jobs    []*job
	started bool
	// rootSpan is the initiating job's root span (set at creation); span is
	// the "run" child opened when a worker picks the flight up (markRunning)
	// and ended when the future resolves. For traced simulations simStart
	// anchors cycle 0 in wall time and simEvents holds the lifecycle trace.
	// All guarded by Server.mu.
	rootSpan  *obs.Span
	span      *obs.Span
	simStart  time.Time
	simEvents []obs.Event
	// skip is the finished run's two-speed-clock summary (simulation flights
	// only), written by the compute fn under Server.mu before it returns and
	// memoized beside the payload.
	skip *SkipInfo
}

// Server is the daemon. Build with New, mount Handler, and Drain on
// shutdown.
type Server struct {
	cfg  Config
	pool *runner.Pool
	// memo is the result cache's memory tier: in-flight runs single-flighted
	// by fingerprint, finished ones in its LRU (Config.CacheEntries).
	memo runner.Memo[string, answer]

	mu        sync.Mutex
	jobs      map[string]*job
	jobOrder  []string           // insertion order, for bounded retention
	flights   map[string]*flight // per-flight job state, keyed by fingerprint
	startedAt time.Time

	// checkpoints memoizes warmup prefixes for the figure-sweep path
	// (DESIGN §15); always non-nil, store-backed when CheckpointDir is set.
	checkpoints *checkpoint.Cache

	// Durability layer (durable.go). store/journal are nil when DataDir is
	// empty or opening failed; storeWanted distinguishes "memory-only by
	// choice" from "degraded". recovered and the recN counts are written
	// once during New's journal recovery, before the handler is reachable.
	store                                     *store.Store
	journal                                   *store.Journal
	storeWanted                               bool
	recovered                                 []*job
	recReplayed, recRehydrated, recReenqueued int

	slots      chan struct{} // admission tokens: queued + running jobs
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseStop   context.CancelFunc
	draining   atomic.Bool
	nextID     atomic.Uint64
	nextFlight atomic.Uint64
	busy       atomic.Int64 // flights currently executing on a pool worker

	log    *slog.Logger
	spans  *obs.Spanner // wall-clock serving trace
	vitals func() obs.RuntimeVitals

	// Server metrics live in an obs.Registry rendered by /metrics. Counters
	// are internally atomic; gauges and histograms are single-writer, so
	// metricsMu guards every histogram observation and every render.
	// metricsMu nests OUTSIDE s.mu: never acquire it while holding s.mu.
	metricsMu    sync.Mutex
	reg          *obs.Registry
	mAccepted    *obs.Counter
	mRejected    *obs.Counter
	mDeduped     *obs.Counter
	mCached      *obs.Counter
	mCompleted   *obs.Counter
	mFailed      *obs.Counter
	mCancelled   *obs.Counter
	mSimsRun     *obs.Counter
	mFigsRun     *obs.Counter
	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter
	// Two-speed-clock aggregates across completed simulation runs: how many
	// runs reported skip statistics, and the summed skipped/wall cycles
	// (their ratio is the fleet-wide skip rate served by /v1/stats).
	mSkipRuns      *obs.Counter
	mCyclesSkipped *obs.Counter
	mCyclesWall    *obs.Counter
	// Disk-tier counters: store lookups (a corrupt entry counts both corrupt
	// and miss), write-through failures, and journal appends.
	mStoreHits        *obs.Counter
	mStoreMisses      *obs.Counter
	mStoreCorrupt     *obs.Counter
	mStoreWriteErrors *obs.Counter
	mJournalRecords   *obs.Counter
	mJournalErrors    *obs.Counter
	// Fleet counters: the peering tier's fetch outcomes (a corrupt peer entry
	// counts both corrupt and miss, mirroring the disk tier), entries served
	// to peers, and submissions shed by tenant quota or priority capacity.
	mPeerHits        *obs.Counter
	mPeerMisses      *obs.Counter
	mPeerCorrupt     *obs.Counter
	mPeerServed      *obs.Counter
	mPeerServeMisses *obs.Counter
	mQuotaRejected   *obs.Counter
	// Warmup-checkpoint counters mirror the checkpoint cache's internal
	// tallies into the registry; syncCheckpointMetrics folds the deltas in
	// before every render so /metrics keeps counter semantics.
	mCkptHits      *obs.Counter
	mCkptMisses    *obs.Counter
	mCkptForks     *obs.Counter
	mCkptBypassed  *obs.Counter
	mCkptEvictions *obs.Counter
	// End-to-end latency splits by how the job was answered: served (a real
	// run, or joining one) vs cache (answered from the LRU). Folding both
	// into one histogram would poison the percentiles — cache hits are ~0 ms.
	latServed *obs.Histogram // ms
	latCache  *obs.Histogram // ms
	// µs-resolution series feed /v1/stats' percentiles: the served
	// end-to-end plus its exact phase partition, and the pool's slot wait.
	latServedUs *obs.Histogram
	latCacheUs  *obs.Histogram
	phAdmitUs   *obs.Histogram
	phQueueUs   *obs.Histogram
	phRunUs     *obs.Histogram
	phRespondUs *obs.Histogram
	poolWaitUs  *obs.Histogram
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		pool:      runner.NewPooled(cfg.Workers),
		jobs:      map[string]*job{},
		flights:   map[string]*flight{},
		slots:     make(chan struct{}, cfg.QueueDepth),
		startedAt: time.Now(),
	}
	s.memo.SetCap(cfg.CacheEntries)
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.spans = obs.NewSpanner(cfg.SpanCapacity)

	// Warmup-checkpoint cache: memory-only by default, store-backed when a
	// checkpoint directory is configured. An unopenable directory degrades to
	// memory-only memoization rather than refusing to serve.
	s.checkpoints = checkpoint.New()
	if cfg.CheckpointDir != "" {
		if c, err := checkpoint.Open(cfg.CheckpointDir, cfg.Fsync); err != nil {
			s.log.Warn("checkpoint store unavailable; memoizing warmups in memory only", "dir", cfg.CheckpointDir, "err", err)
		} else {
			s.checkpoints = c
		}
	}
	s.checkpoints.SetCap(checkpointEntries)

	msBounds := []uint64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}
	usBounds := []uint64{
		50, 100, 250, 500,
		1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000,
	}
	s.reg = obs.NewRegistry(1)
	s.mAccepted = s.reg.Counter("jobs_accepted_total")
	s.mRejected = s.reg.Counter("jobs_rejected_total")
	s.mDeduped = s.reg.Counter("jobs_deduped_total")
	s.mCached = s.reg.Counter("jobs_cached_total")
	s.mCompleted = s.reg.Counter("jobs_completed_total")
	s.mFailed = s.reg.Counter("jobs_failed_total")
	s.mCancelled = s.reg.Counter("jobs_cancelled_total")
	s.mSimsRun = s.reg.Counter("sims_run_total")
	s.mFigsRun = s.reg.Counter("figures_run_total")
	s.latServed = s.reg.Histogram("job_latency_served_ms", msBounds)
	s.latCache = s.reg.Histogram("job_latency_cache_ms", msBounds)
	s.latServedUs = s.reg.Histogram("job_latency_served_us", usBounds)
	s.latCacheUs = s.reg.Histogram("job_latency_cache_us", usBounds)
	s.phAdmitUs = s.reg.Histogram("phase_admission_us", usBounds)
	s.phQueueUs = s.reg.Histogram("phase_queue_us", usBounds)
	s.phRunUs = s.reg.Histogram("phase_run_us", usBounds)
	s.phRespondUs = s.reg.Histogram("phase_respond_us", usBounds)
	s.poolWaitUs = s.reg.Histogram("pool_wait_us", usBounds)
	s.pool.Instrument(func(_ string, wait time.Duration) {
		s.metricsMu.Lock()
		s.poolWaitUs.Observe(usOf(wait))
		s.metricsMu.Unlock()
	})
	s.reg.Gauge("queue_depth", func(uint64) float64 { return float64(len(s.slots)) })
	s.reg.Gauge("queue_capacity", func(uint64) float64 { return float64(cfg.QueueDepth) })
	s.reg.Gauge("workers", func(uint64) float64 { return float64(s.pool.Jobs()) })
	s.reg.Gauge("workers_busy", func(uint64) float64 { return float64(s.busy.Load()) })
	s.reg.Gauge("uptime_seconds", func(uint64) float64 { return time.Since(s.startedAt).Seconds() })
	s.reg.Gauge("trace_spans_dropped", func(uint64) float64 { return float64(s.spans.Dropped()) })
	s.reg.Gauge("cache_entries", func(uint64) float64 { return float64(s.memo.Len()) })
	s.vitals = obs.RegisterRuntimeMetrics(s.reg)
	// Hits and misses are monotonic, so they are registry counters (the
	// _total suffix promises counter semantics to Prometheus tooling), counted
	// per submission: one outcome for the first lookup, plus a hit if the
	// post-admission re-check finds a result that landed in between.
	s.mCacheHits = s.reg.Counter("cache_hits_total")
	s.mCacheMisses = s.reg.Counter("cache_misses_total")
	s.mSkipRuns = s.reg.Counter("sim_skip_reports_total")
	s.mCyclesSkipped = s.reg.Counter("sim_cycles_skipped_total")
	s.mCyclesWall = s.reg.Counter("sim_cycles_wall_total")
	s.mStoreHits = s.reg.Counter("store_hits_total")
	s.mStoreMisses = s.reg.Counter("store_misses_total")
	s.mStoreCorrupt = s.reg.Counter("store_corrupt_total")
	s.mStoreWriteErrors = s.reg.Counter("store_write_errors_total")
	s.mJournalRecords = s.reg.Counter("journal_records_total")
	s.mJournalErrors = s.reg.Counter("journal_errors_total")
	s.mPeerHits = s.reg.Counter("peer_hits_total")
	s.mPeerMisses = s.reg.Counter("peer_misses_total")
	s.mPeerCorrupt = s.reg.Counter("peer_corrupt_total")
	s.mPeerServed = s.reg.Counter("peer_served_total")
	s.mPeerServeMisses = s.reg.Counter("peer_serve_misses_total")
	s.mQuotaRejected = s.reg.Counter("jobs_quota_rejected_total")
	s.mCkptHits = s.reg.Counter("checkpoint_hits_total")
	s.mCkptMisses = s.reg.Counter("checkpoint_misses_total")
	s.mCkptForks = s.reg.Counter("checkpoint_forks_total")
	s.mCkptBypassed = s.reg.Counter("checkpoint_bypassed_total")
	s.mCkptEvictions = s.reg.Counter("checkpoint_evictions_total")
	s.reg.Gauge("checkpoint_entries", func(uint64) float64 {
		return float64(s.checkpoints.Snapshot().Entries)
	})
	s.reg.Gauge("store_entries", func(uint64) float64 {
		if s.store == nil {
			return 0
		}
		return float64(s.store.Len())
	})
	s.reg.Gauge("store_degraded", func(uint64) float64 {
		if s.durabilityDegraded() {
			return 1
		}
		return 0
	})
	s.reg.Gauge("recovery_outstanding", func(uint64) float64 { return float64(s.recoveryOutstanding()) })
	// Open the disk tier and replay the journal last: recovery re-enqueues
	// interrupted jobs through the flight machinery built above.
	s.openDurable()
	return s
}

// count increments a server counter; counters are atomic, so no lock.
func (s *Server) count(c *obs.Counter) { c.Inc() }

// syncCheckpointMetrics folds the checkpoint cache's internal tallies into
// the registry counters and returns the snapshot. Both sides are monotonic,
// so adding the delta under metricsMu preserves counter semantics however
// many renders race the cache's own increments.
func (s *Server) syncCheckpointMetrics() checkpoint.Stats {
	st := s.checkpoints.Snapshot()
	s.metricsMu.Lock()
	s.mCkptHits.Add(st.Hits - s.mCkptHits.Value())
	s.mCkptMisses.Add(st.Misses - s.mCkptMisses.Value())
	s.mCkptForks.Add(st.Forks - s.mCkptForks.Value())
	s.mCkptBypassed.Add(st.Bypassed - s.mCkptBypassed.Value())
	s.mCkptEvictions.Add(st.Evictions - s.mCkptEvictions.Value())
	s.metricsMu.Unlock()
	return st
}

// usOf converts a duration to whole non-negative microseconds.
func usOf(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d.Microseconds())
}

// observeCacheHit records a cache-answered submission's end-to-end latency.
func (s *Server) observeCacheHit(d time.Duration) {
	s.metricsMu.Lock()
	s.latCache.Observe(uint64(d.Milliseconds()))
	s.latCacheUs.Observe(usOf(d))
	s.metricsMu.Unlock()
}

// observeServed records a served job's end-to-end latency and its exact
// phase partition (admission + queue + run + respond == e2e).
func (s *Server) observeServed(e2e, admit, queue, run, respond time.Duration) {
	s.metricsMu.Lock()
	s.latServed.Observe(uint64(e2e.Milliseconds()))
	s.latServedUs.Observe(usOf(e2e))
	s.phAdmitUs.Observe(usOf(admit))
	s.phQueueUs.Observe(usOf(queue))
	s.phRunUs.Observe(usOf(run))
	s.phRespondUs.Observe(usOf(respond))
	s.metricsMu.Unlock()
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	mux.HandleFunc("POST /v1/figures", s.handleFigures)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/peer/result", s.handlePeerResult)
	mux.HandleFunc("GET /v1/fleet/self", s.handleFleetSelf)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/dash", s.handleDash)
	mux.HandleFunc("GET /debug/dash/stream", s.handleDashStream)
	return mux
}

// Drain stops admitting work and waits for every in-flight job to finish.
// When ctx expires first, remaining flights are cancelled and Drain returns
// ctx.Err() after they unwind — a bounded wait, because cancellation reaches
// every queued simulation immediately and every running one (including each
// leg of a figure sweep) at its next watchdog boundary.
//
// The draining flag flips under s.mu: submit re-checks it under the same
// mutex before its wg.Add, so once Drain holds and releases the lock no new
// flight can be added while wg.Wait may be observing a zero counter.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseStop() // cancel every flight; runs unwind at the next watchdog boundary
		<-done
		return ctx.Err()
	}
}

// Close cancels all in-flight work immediately (tests; Drain is the polite
// path).
func (s *Server) Close() {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	s.baseStop()
	s.wg.Wait()
}

// ---------------------------------------------------------------- submission

// newJobLocked allocates and registers a job; the caller holds s.mu. Fleet
// nodes embed their id ("j-w1-3") so a coordinator can route any job lookup
// to the node that owns it by parsing the id alone.
func (s *Server) newJobLocked(kind, fp string) *job {
	n := s.nextID.Add(1)
	id := fmt.Sprintf("j-%d", n)
	if s.cfg.NodeID != "" {
		id = fmt.Sprintf("j-%s-%d", s.cfg.NodeID, n)
	}
	return s.registerJobLocked(id, kind, fp)
}

// registerJobLocked registers a job under an explicit id — fresh ids from
// newJobLocked, or original ids preserved across a crash by journal
// recovery. The caller holds s.mu.
func (s *Server) registerJobLocked(id, kind, fp string) *job {
	j := &job{
		id:      id,
		kind:    kind,
		fp:      fp,
		created: time.Now(),
		state:   StateQueued,
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	// Bounded retention: forget the oldest *finished* jobs beyond the cap.
	for len(s.jobs) > s.cfg.MaxTrackedJobs {
		evicted := false
		for i, id := range s.jobOrder {
			old := s.jobs[id]
			if old == nil {
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
			old.mu.Lock()
			terminal := old.state.Terminal()
			old.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything is live; let the table run hot rather than drop state
		}
	}
	return j
}

// admit takes one queue slot, or reports rejection. Cached answers bypass it.
func (s *Server) admit() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// releaseSlot frees j's admission token (and its priority-class slot, if
// any) exactly once.
func (s *Server) releaseSlot(j *job) {
	j.mu.Lock()
	freed := j.slotFreed
	j.slotFreed = true
	rel := j.classRelease
	j.classRelease = nil
	j.mu.Unlock()
	if !freed {
		<-s.slots
		if rel != nil {
			rel()
		}
	}
}

// serveCachedLocked registers a done-from-cache job holding b and answers the
// submission. The caller holds s.mu; it is released here, before any counter
// is touched (metricsMu nests outside s.mu — the /metrics render holds it
// while gauges read s.mu). root/adm are the submission's spans; both end
// here with the cache-hit outcome.
func (s *Server) serveCachedLocked(w http.ResponseWriter, kind, fp string, a answer, t0 time.Time, root, adm *obs.Span, peer bool) {
	j := s.newJobLocked(kind, fp)
	j.cached = true
	j.peer = peer
	j.state = StateDone
	j.result = a.val
	j.skip = a.skip
	j.span = root
	root.SetAttr("job", j.id)
	s.mu.Unlock()
	outcome := "cache_hit"
	if peer {
		outcome = "peer_hit"
	}
	adm.SetAttr("outcome", outcome)
	adm.End()
	root.SetAttr("state", string(StateDone))
	root.End()
	s.count(s.mCacheHits)
	s.count(s.mAccepted)
	s.count(s.mCached)
	s.observeCacheHit(time.Since(t0))
	s.log.Info("job cache hit", "job", j.id, "kind", kind, "fp", fp, "peer", peer)
	writeJSON(w, http.StatusOK, j.status(true))
}

// flightForLocked finds fp's in-flight computation or starts a new one
// running fn. The caller holds s.mu; created reports whether a new flight
// (and its awaitFlight waiter) was launched.
func (s *Server) flightForLocked(fp string, root *obs.Span, fn flightFn) (fl *flight, created bool) {
	if fl = s.flights[fp]; fl != nil {
		return fl, false
	}
	fl = &flight{id: fmt.Sprintf("f-%d", s.nextFlight.Add(1)), fp: fp, rootSpan: root}
	fl.ctx, fl.cancel = context.WithCancel(s.baseCtx)
	compute := fn(fl)
	var computing bool
	fl.fut, computing = s.memo.GetCtx(s.pool, fl.ctx, fp, func(ctx context.Context) (answer, error) {
		b, err := compute(ctx)
		return answer{val: b, skip: fl.skip}, err
	})
	// Journal recovery starts flights without consulting the memo first; one
	// whose result an earlier recovered twin already landed resolves at once.
	fl.started = !computing
	s.flights[fp] = fl
	s.wg.Add(1)
	go s.awaitFlight(fl)
	return fl, true
}

// submit runs the common submission path: answer from the memo's LRU, the
// disk store, or a fleet peer; join an in-flight twin; or start a new flight
// computing fn. reqJSON is the original wire request, journaled write-ahead
// so a crashed daemon can re-run the job. r carries the tenant and priority
// headers for admission. Every outcome — even a rejection — leaves a span
// tree in the serving trace.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind, fp string, reqJSON []byte, fn flightFn) {
	t0 := time.Now()
	root := s.spans.Start("job", obs.A("kind", kind), obs.A("fp", fp))
	adm := root.Child("admission")
	endWith := func(outcome string) { // unadmitted exits: close the tree
		adm.SetAttr("outcome", outcome)
		adm.End()
		root.SetAttr("state", outcome)
		root.End()
	}
	if s.draining.Load() { // fast path; re-checked under s.mu before wg.Add
		endWith("draining")
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// Tenant quota first: the bucket prices every submission — cached answers
	// included — so a tenant hammering warm keys still pays for the requests.
	tenant := r.Header.Get("X-Smtdram-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	high := strings.EqualFold(r.Header.Get("X-Smtdram-Priority"), "high")
	if s.cfg.Admission != nil {
		if ok, retry := s.cfg.Admission.Charge(tenant); !ok {
			s.count(s.mQuotaRejected)
			s.count(s.mRejected)
			endWith("rejected_tenant_quota")
			secs := int((retry + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			w.Header().Set("X-Smtdram-Tenant", tenant)
			writeErr(w, http.StatusTooManyRequests, fmt.Sprintf("tenant %q over quota; retry in %ds", tenant, secs))
			return
		}
	}

	s.mu.Lock()
	if a, ok := s.memo.Peek(fp); ok {
		s.serveCachedLocked(w, kind, fp, a, t0, root, adm, false)
		return
	}
	s.mu.Unlock()
	// Disk tier: a memo miss falls back to the content-addressed store (IO
	// outside s.mu) before computing. A hit is promoted into the memo's LRU,
	// so the ladder is LRU → disk → peer → compute.
	if a, ok := s.storeGet(fp); ok {
		s.mu.Lock()
		s.memo.Add(fp, a)
		s.serveCachedLocked(w, kind, fp, a, t0, root, adm, false)
		return
	}
	// Peering tier: in a fleet, the key's previous ring owner may hold the
	// result this node has never computed (membership changed, or the sweep
	// warmed a sibling). CRC-verified transfer, then write-through above.
	if a, ok := s.peerGet(r.Context(), fp); ok {
		s.mu.Lock()
		s.memo.Add(fp, a)
		s.serveCachedLocked(w, kind, fp, a, t0, root, adm, true)
		return
	}
	s.count(s.mCacheMisses)

	// Priority-class slot, then the global queue slot: the class gate keeps
	// reserved headroom for high-priority work, the queue bounds everything.
	classRelease, classOK := func() (func(), bool) {
		if s.cfg.Admission == nil {
			return func() {}, true
		}
		return s.cfg.Admission.Acquire(high)
	}()
	if !classOK {
		s.count(s.mQuotaRejected)
		s.count(s.mRejected)
		endWith("rejected_priority_capacity")
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "priority-class capacity exhausted; retry later")
		return
	}
	if !s.admit() {
		classRelease()
		s.count(s.mRejected)
		endWith("rejected_queue_full")
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, fmt.Sprintf("job queue full (%d queued or running); retry later", s.cfg.QueueDepth))
		return
	}

	s.mu.Lock()
	// Re-check draining under s.mu: Drain flips the flag under the same mutex
	// before wg.Wait, so admitting here (wg.Add below) would race the Wait and
	// let a late flight outlive the drain.
	if s.draining.Load() {
		s.mu.Unlock()
		<-s.slots // return the admission token
		classRelease()
		endWith("draining")
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Re-check the cache too: an identical flight may have completed between
	// the first check and admission, and starting a fresh simulation for bytes
	// the cache already holds is wasted work.
	if a, ok := s.memo.Peek(fp); ok {
		s.serveCachedLocked(w, kind, fp, a, t0, root, adm, false)
		<-s.slots // return the admission token; no flight was started
		classRelease()
		return
	}
	fl, created := s.flightForLocked(fp, root, fn)
	deduped := !created
	j := s.newJobLocked(kind, fp)
	j.created = t0 // anchor phase accounting at submit entry, not allocation
	j.deduped = deduped
	j.classRelease = classRelease // freed with the admission token
	j.flight = fl
	j.flightID = fl.id
	j.span = root
	root.SetAttr("job", j.id)
	root.SetAttr("flight", fl.id)
	j.tAdmitted = time.Now()
	if fl.started {
		// Joined a flight already on a worker: the queue phase is empty.
		j.state = StateRunning
		j.tRunStart = j.tAdmitted
	} else {
		j.queueSpan = root.Child("queue_wait")
	}
	fl.refs++
	fl.jobs = append(fl.jobs, j)
	s.mu.Unlock()

	outcome := "admitted"
	if deduped {
		outcome = "deduped"
	}
	adm.SetAttr("outcome", outcome)
	adm.End()
	s.count(s.mAccepted)
	if deduped {
		s.count(s.mDeduped)
	}
	// Write-ahead: the submitted record (with the full request) is on disk
	// before the client hears "accepted", so an acknowledged job survives a
	// crash at any later point.
	s.journalAppend(store.Record{Type: store.RecSubmitted, Job: j.id, Kind: kind, FP: fp, Request: reqJSON})
	s.log.Info("job accepted", "job", j.id, "kind", kind, "fp", fp, "flight", fl.id, "deduped", deduped)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// awaitFlight is the flight's sole waiter: it resolves the future (whose
// success the memo has already kept), retires the flight, and completes
// every attached job.
func (s *Server) awaitFlight(fl *flight) {
	defer s.wg.Done()
	a, err := fl.fut.Wait()
	resolved := time.Now()

	s.mu.Lock()
	if s.flights[fl.fp] == fl {
		delete(s.flights, fl.fp)
	}
	if fl.span != nil {
		if err != nil {
			fl.span.SetAttr("error", err.Error())
		}
		fl.span.End()
	}
	jobs := append([]*job(nil), fl.jobs...)
	fl.jobs = nil
	for _, j := range jobs {
		j.flight = nil
		// Hand the cycle-domain trace (if any) to every rider, so each job's
		// /trace shows both clock domains. The slice is immutable from here.
		j.simEvents = fl.simEvents
		j.simStart = fl.simStart
	}
	s.mu.Unlock()
	fl.cancel() // release the context; the run is over

	// Write the result through to the disk tier before any job resolves:
	// once a resolved record hits the journal, the bytes it promises are
	// already durable (write-ahead ordering).
	if err == nil {
		s.storePut(fl.fp, a)
	}

	for _, j := range jobs {
		s.finishJob(j, a, err, resolved)
	}
}

// finishJob moves one job to its terminal state (unless cancellation beat
// us), wakes its subscribers, frees its slot, closes its span tree, and
// records the phase-partitioned latency metrics. resolved is the instant the
// flight's future resolved — the run→respond phase boundary shared by every
// rider of the flight.
func (s *Server) finishJob(j *job, a answer, err error, resolved time.Time) {
	respond := j.span.Child("respond")
	j.mu.Lock()
	transitioned := false
	if !j.state.Terminal() {
		transitioned = true
		if err != nil {
			j.state = StateFailed
			j.errMsg = err.Error()
		} else {
			j.state = StateDone
			j.result = a.val
			j.skip = a.skip
		}
		for _, ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
	state, errMsg := j.state, j.errMsg
	tAdmitted, tRunStart := j.tAdmitted, j.tRunStart
	j.mu.Unlock()

	s.releaseSlot(j)
	respond.End()
	j.span.SetAttr("state", string(state))
	j.span.End()
	done := time.Now()
	dur := done.Sub(j.created)
	if transitioned {
		s.journalAppend(store.Record{Type: store.RecResolved, Job: j.id, Kind: j.kind, FP: j.fp, State: string(state), Error: errMsg})
		if state == StateFailed {
			s.count(s.mFailed)
			s.log.Warn("job failed", "job", j.id, "flight", j.flightID, "dur", dur.Truncate(time.Millisecond), "err", err)
		} else {
			s.count(s.mCompleted)
			s.log.Info("job done", "job", j.id, "flight", j.flightID, "dur", dur.Truncate(time.Millisecond))
			// The four phases partition [created, done] exactly:
			// admission ends at tAdmitted, queue at tRunStart, run at
			// resolved, respond at done.
			s.observeServed(dur, tAdmitted.Sub(j.created), tRunStart.Sub(tAdmitted), resolved.Sub(tRunStart), done.Sub(resolved))
		}
	}
}

// markRunning flips a flight's attached jobs to running; called by the
// flight's compute fn the moment a pool worker picks it up. It also opens
// the flight's "run" span (a child of the initiating job's root) and closes
// every rider's queue_wait span, stamping the run-start instant the phase
// accounting uses. Returns the run span for the compute fn to hand to the
// simulator.
func (s *Server) markRunning(fl *flight) *obs.Span {
	now := time.Now()
	s.mu.Lock()
	fl.started = true
	if fl.span == nil {
		fl.span = fl.rootSpan.Child("run", obs.A("flight", fl.id))
	}
	run := fl.span
	jobs := append([]*job(nil), fl.jobs...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateRunning
		}
		if j.tRunStart.IsZero() {
			j.tRunStart = now
		}
		qs := j.queueSpan
		j.queueSpan = nil
		j.mu.Unlock()
		qs.End()
		s.journalAppend(store.Record{Type: store.RecStarted, Job: j.id})
	}
	return run
}

// broadcastProgress fans a progress sample out to every subscriber of every
// job attached to the flight. Slow subscribers drop samples rather than
// stall the simulation.
func (s *Server) broadcastProgress(fl *flight, sample []byte) {
	s.mu.Lock()
	jobs := append([]*job(nil), fl.jobs...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		j.progress = sample
		for _, ch := range j.subs {
			select {
			case ch <- sample:
			default:
			}
		}
		j.mu.Unlock()
	}
}

// simFlightFn builds the compute function for one simulation flight: run the
// machine under the flight's context with a progress-streaming observer and
// marshal the Result. The marshalled bytes are the byte-identical payload —
// the same json.Marshal of the same core.Result the CLI's -json flag emits.
func (s *Server) simFlightFn(fl *flight, cfg core.Config, traced bool) func(context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		runSpan := s.markRunning(fl)
		s.busy.Add(1)
		defer s.busy.Add(-1)
		s.count(s.mSimsRun)
		var sim *core.Simulator
		ob := &obs.Observer{ProgressInterval: s.cfg.ProgressInterval, RunSpan: runSpan}
		ob.Progress = func(now uint64) {
			if sim == nil {
				return // constructor-time call; nothing to report yet
			}
			if b, err := json.Marshal(sim.Progress(now)); err == nil {
				s.broadcastProgress(fl, b)
			}
		}
		if traced {
			// Cycle-domain lifecycle trace, merged into per-job traces by
			// wall-clock offset. Observation only: the tracer never constrains
			// the two-speed clock, so results stay byte-identical.
			ob.Trace = obs.NewTracer()
		}
		cfg.Observe = func() *obs.Observer { return ob }
		var err error
		sim, err = core.NewSimulator(cfg)
		if err != nil {
			return nil, err
		}
		simStart := time.Now() // wall-clock instant of cycle 0
		res, err := sim.RunContext(ctx)
		// Skip statistics ride beside the result, never inside it: the
		// payload below stays byte-identical to the CLI's -json output.
		skip := skipInfoOf(sim.SkipStats())
		s.mu.Lock()
		fl.skip = skip
		if ob.Trace != nil {
			fl.simStart = simStart
			fl.simEvents = ob.Trace.Events()
		}
		s.mu.Unlock()
		if skip != nil {
			s.mSkipRuns.Inc()
			s.mCyclesSkipped.Add(skip.Skipped)
			s.mCyclesWall.Add(skip.Wall)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
}

// figFlightFn builds the compute function for one figure sweep: render the
// tables into a buffer and wrap them in a small JSON envelope. ctx threads
// through figures.Options into every simulation the sweep schedules, so a
// cancelled or drained sweep aborts between configurations (and mid-run at
// the watchdog boundary) instead of finishing the remaining grid.
func (s *Server) figFlightFn(fl *flight, req FigRequest) func(context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		s.markRunning(fl)
		s.busy.Add(1)
		defer s.busy.Add(-1)
		s.count(s.mFigsRun)
		var buf bytes.Buffer
		if err := req.run(ctx, s.pool.Jobs(), &buf, s.checkpoints); err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			Fig    string `json:"fig"`
			Output string `json:"output"`
		}{Fig: req.Fig, Output: buf.String()})
	}
}
