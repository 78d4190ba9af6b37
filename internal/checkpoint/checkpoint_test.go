package checkpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/store"
)

func fastCfg(apps ...string) core.Config {
	cfg := core.DefaultConfig(apps...)
	cfg.WarmupInstr = 10_000
	cfg.TargetInstr = 15_000
	return cfg
}

// run executes cfg through c and returns the result's canonical JSON.
func run(t *testing.T, c *Cache, cfg core.Config) []byte {
	t.Helper()
	res, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNilCacheRunsPlainly(t *testing.T) {
	cfg := fastCfg("mcf")
	var c *Cache
	got := run(t, c, cfg)
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)
	if !bytes.Equal(got, want) {
		t.Fatalf("nil cache diverged from a plain run\ngot:  %s\nwant: %s", got, want)
	}
	if st := c.Snapshot(); st != (Stats{}) {
		t.Fatalf("nil cache Snapshot = %+v, want zeros", st)
	}
}

func TestRunMemoizesWarmup(t *testing.T) {
	cfg := fastCfg("mcf", "art")
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)

	c := New()
	first := run(t, c, cfg)
	if !bytes.Equal(first, want) {
		t.Fatalf("first cached run diverged from a plain run\ngot:  %s\nwant: %s", first, want)
	}
	second := run(t, c, cfg)
	if !bytes.Equal(second, want) {
		t.Fatalf("forked run diverged from a plain run\ngot:  %s\nwant: %s", second, want)
	}

	st := c.Snapshot()
	if st.Misses != 1 || st.Hits != 1 || st.Forks != 2 || st.Bypassed != 0 {
		t.Fatalf("counters = %+v, want 1 miss, 1 hit, 2 forks", st)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
}

func TestUnsupportedConfigBypasses(t *testing.T) {
	cfg := fastCfg("mcf")
	cfg.WarmupInstr = 0 // nothing to checkpoint
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)

	c := New()
	if got := run(t, c, cfg); !bytes.Equal(got, want) {
		t.Fatalf("bypassed run diverged from a plain run\ngot:  %s\nwant: %s", got, want)
	}
	st := c.Snapshot()
	if st.Bypassed != 1 || st.Hits != 0 || st.Misses != 0 || st.Forks != 0 {
		t.Fatalf("counters = %+v, want exactly 1 bypass", st)
	}
}

// TestConcurrentRunsShareOneWarmup: concurrent Runs of one prefix collapse to
// a single warmup simulation; everyone else joins the flight and is a hit.
func TestConcurrentRunsShareOneWarmup(t *testing.T) {
	cfg := fastCfg("mcf", "art")
	c := New()
	const n = 8
	results := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Run(context.Background(), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i], _ = json.Marshal(res)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("concurrent run %d diverged", i)
		}
	}
	st := c.Snapshot()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want exactly 1 shared warmup", st.Misses)
	}
	if st.Hits != n-1 || st.Forks != n {
		t.Fatalf("counters = %+v, want %d hits and %d forks", st, n-1, n)
	}
}

func TestStorePersistsAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg("mcf", "art")

	cold, err := Open(dir, store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, cold, cfg)
	if st := cold.Snapshot(); st.Misses != 1 {
		t.Fatalf("cold cache Misses = %d, want 1", st.Misses)
	}

	// A fresh cache over the same directory serves the warmup from disk.
	warm, err := Open(dir, store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, warm, cfg); !bytes.Equal(got, want) {
		t.Fatalf("disk-served run diverged\ngot:  %s\nwant: %s", got, want)
	}
	st := warm.Snapshot()
	if st.Hits != 1 || st.Misses != 0 || st.Forks != 1 {
		t.Fatalf("warm cache counters = %+v, want a pure disk hit", st)
	}
}

// TestCorruptStoreEntryRecomputes: a store entry whose payload is not a
// decodable checkpoint frame (the store's own CRC can still pass — it seals
// whatever was written) must degrade to a recomputed warmup, never a failed
// or wrong run.
func TestCorruptStoreEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg("mcf")
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	c, err := Open(dir, store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a well-stored but undecodable entry under the prefix's key.
	meta := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	if err := c.Store().Put(keyPrefix+cfg.WarmupFingerprint(), []byte("not a checkpoint frame"), meta); err != nil {
		t.Fatal(err)
	}

	if got := run(t, c, cfg); !bytes.Equal(got, wantJSON) {
		t.Fatalf("run over corrupt entry diverged\ngot:  %s\nwant: %s", got, wantJSON)
	}
	st := c.Snapshot()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("counters = %+v, want the corrupt entry to recompute as a miss", st)
	}

	// The recompute overwrote the bad entry: a fresh cache now hits cleanly.
	again, err := Open(dir, store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, again, cfg); !bytes.Equal(got, wantJSON) {
		t.Fatalf("post-repair run diverged\ngot:  %s\nwant: %s", got, wantJSON)
	}
	if st := again.Snapshot(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("post-repair counters = %+v, want a disk hit", st)
	}
}

func TestSetCapEvicts(t *testing.T) {
	c := New()
	c.SetCap(1)
	run(t, c, fastCfg("mcf"))
	run(t, c, fastCfg("art")) // different prefix: overflows the cap
	st := c.Snapshot()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("counters = %+v, want 1 eviction leaving 1 entry", st)
	}
}

// TestJoinedFailedFlightIsNoHit: a Get that joins a flight which then fails
// served no checkpoint, so it counts as nothing. The first Get's context is
// cancelled mid-warmup while a second Get waits on the same flight; both see
// the cancellation, and the counters show the one warmup started, no hit.
func TestJoinedFailedFlightIsNoHit(t *testing.T) {
	cfg := fastCfg("mcf")
	cfg.WarmupInstr = 1_000_000_000 // far longer than the test runs
	c := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 2)
	go func() {
		_, err := c.Get(ctx, cfg)
		errs <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); c.Snapshot().Misses == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first Get never started its warmup")
		}
	}
	// The joiner shares the cancellation, so it cannot outlive the test even
	// if it were scheduled only after the flight had ended.
	go func() {
		_, err := c.Get(ctx, cfg)
		errs <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the second Get join the flight
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("Get returned %v, want context.Canceled", err)
		}
	}
	if st := c.Snapshot(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("counters = %+v, want 0 hits and 1 miss: no checkpoint was served", st)
	}
}
