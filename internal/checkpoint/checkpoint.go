// Package checkpoint is the warmup-memoization layer between the sweep
// drivers (internal/figures, the serving daemon) and the core simulator.
//
// Every sweep point pays the same warmup prefix before its measurement phase
// begins, and the machine state at the warmup boundary is a pure function of
// the warmup-prefix fingerprint (core.Config.WarmupFingerprint). The Cache
// exploits that: the first run of a prefix simulates warmup once and captures
// a core.Checkpoint; every later run of the same prefix — concurrent or not,
// in this process or (with a backing store) a later one — forks from the
// frozen machine and simulates only the measurement phase. The fork is
// byte-identical to an uninterrupted run (core's equivalence suite and the
// lockstep oracle enforce this), so memoization changes wall-clock time and
// nothing else.
//
// A Cache is safe for concurrent use and nil-safe: a nil *Cache runs every
// configuration plainly, so callers thread an optional cache without
// branching. Configurations that cannot checkpoint (no warmup phase, fault
// plans, observers, trace sinks — see core.CheckpointSupported) bypass the
// cache and are counted as such.
package checkpoint

import (
	"context"
	"encoding/binary"
	"sync/atomic"

	"smtdram/internal/core"
	"smtdram/internal/runner"
	"smtdram/internal/store"
)

// keyPrefix namespaces checkpoint entries inside a store.Store, so a cache
// pointed at the daemon's data directory can never collide with result
// entries (results are keyed by the full fingerprint, checkpoints by the
// warmup prefix; the namespace makes the separation structural).
const keyPrefix = "ckpt|"

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts runs served from a previously captured checkpoint —
	// in-memory, joined in flight, or read back from the store.
	Hits uint64
	// Misses counts warmup phases actually simulated.
	Misses uint64
	// Forks counts measurement phases started from a checkpoint.
	Forks uint64
	// Bypassed counts runs that could not checkpoint and ran plainly.
	Bypassed uint64
	// Evictions counts in-memory entries shed by the cap (SetCap).
	Evictions uint64
	// Entries is the current in-memory checkpoint count (warmups still
	// simulating are not counted).
	Entries int
}

// Cache memoizes warmup checkpoints by warmup-prefix fingerprint.
//
// The in-memory tier is a runner.Memo: concurrent requests for one prefix
// share a single warmup simulation, and captured checkpoints stay in its LRU
// (unbounded unless SetCap bounds it). Warmups execute on the cache's own
// worker pool, never on the caller's, so a sweep worker blocked on a shared
// warmup cannot deadlock the pool it runs in. The optional store tier
// persists frames across processes; corrupt or missing entries silently fall
// back to recomputation (the frame's CRC and fingerprint are validated on
// restore, so a bad entry can degrade speed, never correctness).
type Cache struct {
	pool *runner.Pool
	memo runner.Memo[string, *core.Checkpoint]
	st   *store.Store

	hits, misses, forks, bypassed atomic.Uint64
}

// New builds an in-memory cache.
func New() *Cache {
	return &Cache{pool: runner.NewPooled(0)}
}

// Open builds a cache persisted under dir (creating it if needed): captured
// checkpoints are written through, and an in-memory miss consults the store
// before simulating warmup.
func Open(dir string, fsync store.FsyncPolicy) (*Cache, error) {
	st, err := store.Open(dir, fsync)
	if err != nil {
		return nil, err
	}
	c := New()
	c.st = st
	return c, nil
}

// Store returns the backing store, nil when the cache is memory-only.
func (c *Cache) Store() *store.Store {
	if c == nil {
		return nil
	}
	return c.st
}

// SetCap bounds the in-memory tier to n checkpoints with LRU eviction
// (n <= 0 restores the unbounded default). A store-backed cache re-reads
// evicted entries from disk; a memory-only cache re-simulates them.
func (c *Cache) SetCap(n int) { c.memo.SetCap(max(n, 0)) }

// Snapshot returns the cache's counters. Nil-safe (all zeros).
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Forks:     c.forks.Load(),
		Bypassed:  c.bypassed.Load(),
		Evictions: c.memo.Evictions(),
		Entries:   c.memo.Len(),
	}
}

// Run executes cfg, forking from a memoized warmup checkpoint when the
// configuration supports it and running plainly when it does not. On a nil
// cache every run is plain. The result is byte-identical either way.
func (c *Cache) Run(ctx context.Context, cfg core.Config) (core.Result, error) {
	if c == nil {
		return core.RunContext(ctx, cfg)
	}
	if err := core.CheckpointSupported(cfg); err != nil {
		c.bypassed.Add(1)
		return core.RunContext(ctx, cfg)
	}
	chk, err := c.Get(ctx, cfg)
	if err != nil {
		return core.Result{}, err
	}
	c.forks.Add(1)
	return core.RunFromCheckpoint(ctx, cfg, chk)
}

// Get returns the warmup checkpoint for cfg's prefix, simulating the warmup
// phase only if neither tier holds it. Concurrent Gets for one prefix share a
// single flight; the flight runs under the first caller's context.
func (c *Cache) Get(ctx context.Context, cfg core.Config) (*core.Checkpoint, error) {
	if err := core.CheckpointSupported(cfg); err != nil {
		return nil, err
	}
	prefix := cfg.WarmupFingerprint()
	f, created := c.memo.GetCtx(c.pool, ctx, prefix, func(ctx context.Context) (*core.Checkpoint, error) {
		// A store read-back is only a hit if its frame actually restores: the
		// store's own CRC covers what was written, not that what was written
		// is a decodable checkpoint. A frame that fails the trial restore is
		// recomputed, so a damaged entry degrades speed, never correctness.
		if chk := c.fromStore(prefix); chk != nil {
			if _, err := core.NewCheckpointedSimulator(cfg, chk); err == nil {
				c.hits.Add(1)
				return chk, nil
			}
		}
		c.misses.Add(1)
		chk, err := core.WarmupCheckpoint(ctx, cfg)
		if err != nil {
			return nil, err
		}
		c.toStore(chk)
		return chk, nil
	})
	chk, err := f.Wait()
	if err == nil && !created { // a joined flight that failed served nothing
		c.hits.Add(1)
	}
	return chk, err
}

// fromStore reads a persisted checkpoint back; any miss, corruption, or
// malformed metadata returns nil and the caller recomputes. The store
// quarantines corrupt entries itself, and the frame's own CRC plus the
// fingerprint check at restore time guard the payload end-to-end.
func (c *Cache) fromStore(prefix string) *core.Checkpoint {
	if c.st == nil {
		return nil
	}
	payload, meta, err := c.st.Get(keyPrefix + prefix)
	if err != nil || len(meta) != 8 {
		return nil
	}
	now := binary.LittleEndian.Uint64(meta)
	if now == 0 || len(payload) == 0 {
		return nil
	}
	return &core.Checkpoint{Prefix: prefix, Now: now, Data: payload}
}

// toStore writes a fresh checkpoint through to the persistence tier. Write
// errors are swallowed: the store degrades to memory-only mode on its own and
// the cache keeps working from RAM.
func (c *Cache) toStore(chk *core.Checkpoint) {
	if c.st == nil {
		return
	}
	var meta [8]byte
	binary.LittleEndian.PutUint64(meta[:], chk.Now)
	_ = c.st.Put(keyPrefix+chk.Prefix, chk.Data, meta[:])
}
