package runner

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// lruVal stands for a memoized payload with a pointer sidecar beside it, the
// shape of the daemon's result bytes plus skip summary.
type lruVal struct {
	payload string
	meta    *int
}

func peekPayload(m *Memo[string, lruVal], key string) (string, bool) {
	v, ok := m.Peek(key)
	return v.payload, ok
}

// TestMemoLRU covers the memo's one LRU tier of resolved values: its order,
// its three retention modes, and its separation from in-flight work.
func TestMemoLRU(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  int
		run  func(t *testing.T, m *Memo[string, lruVal])
	}{
		{"evicts oldest", 2, func(t *testing.T, m *Memo[string, lruVal]) {
			m.Add("a", lruVal{payload: "1"})
			m.Add("b", lruVal{payload: "2"})
			m.Add("c", lruVal{payload: "3"}) // evicts a
			if _, ok := m.Peek("a"); ok {
				t.Fatal("a should have been evicted")
			}
			for _, k := range []string{"b", "c"} {
				if _, ok := m.Peek(k); !ok {
					t.Fatalf("%s should still be cached", k)
				}
			}
			if m.Len() != 2 || m.Evictions() != 1 {
				t.Fatalf("Len = %d, Evictions = %d; want 2, 1", m.Len(), m.Evictions())
			}
		}},
		{"get promotes", 2, func(t *testing.T, m *Memo[string, lruVal]) {
			m.Add("a", lruVal{payload: "1"})
			m.Add("b", lruVal{payload: "2"})
			if _, ok := m.Peek("a"); !ok { // a is now most recent
				t.Fatal("a should be cached")
			}
			m.Add("c", lruVal{payload: "3"}) // evicts b, not a
			if _, ok := m.Peek("b"); ok {
				t.Fatal("b should have been evicted")
			}
			if _, ok := m.Peek("a"); !ok {
				t.Fatal("a should have survived via promotion")
			}
		}},
		{"re-add refreshes value and recency", 2, func(t *testing.T, m *Memo[string, lruVal]) {
			m.Add("a", lruVal{payload: "1"})
			m.Add("b", lruVal{payload: "2"})
			meta := 5
			m.Add("a", lruVal{payload: "3", meta: &meta}) // a is now most recent
			if m.Len() != 2 {
				t.Fatalf("Len = %d, want 2 after re-add", m.Len())
			}
			m.Add("c", lruVal{payload: "4"}) // evicts b, not a
			if _, ok := m.Peek("b"); ok {
				t.Fatal("b should have been evicted")
			}
			v, ok := m.Peek("a")
			if !ok || v.payload != "3" || v.meta == nil || *v.meta != 5 {
				t.Fatalf("Peek(a) = %+v, %v; re-add should refresh value and sidecar", v, ok)
			}
		}},
		{"skip summary rides along", 2, func(t *testing.T, m *Memo[string, lruVal]) {
			meta := 80
			m.Add("a", lruVal{payload: "1", meta: &meta})
			v, ok := m.Peek("a")
			if !ok || v.meta != &meta || v.payload != "1" {
				t.Fatalf("Peek(a) = %+v, %v; the sidecar must come back untouched", v, ok)
			}
		}},
		{"negative capacity retains nothing", -1, func(t *testing.T, m *Memo[string, lruVal]) {
			m.Add("a", lruVal{payload: "1"})
			if _, ok := m.Peek("a"); ok {
				t.Fatal("a retain-nothing memo must not store entries")
			}
			var computes atomic.Int32
			release := make(chan struct{})
			p := NewPooled(2)
			fn := func() (lruVal, error) {
				computes.Add(1)
				<-release
				return lruVal{payload: "x"}, nil
			}
			f1 := m.Get(p, "k", fn)
			f2 := m.Get(p, "k", fn) // still single-flight while running
			close(release)
			for _, f := range []*Future[lruVal]{f1, f2} {
				if v, err := f.Wait(); err != nil || v.payload != "x" {
					t.Fatalf("flight = %+v, %v", v, err)
				}
			}
			if computes.Load() != 1 {
				t.Fatalf("concurrent Gets computed %d times, want 1", computes.Load())
			}
			m.Get(p, "k", fn).Wait()
			if computes.Load() != 2 || m.Len() != 0 {
				t.Fatalf("computes = %d, Len = %d; a landed flight must not be kept", computes.Load(), m.Len())
			}
		}},
		{"eviction follows touch order", 2, func(t *testing.T, m *Memo[string, lruVal]) {
			p := New(4)
			var computes atomic.Int32
			get := func(key string) string {
				v, err := m.Get(p, key, func() (lruVal, error) {
					computes.Add(1)
					return lruVal{payload: key}, nil
				}).Wait()
				if err != nil {
					t.Fatal(err)
				}
				return v.payload
			}
			get("a")
			get("bb")
			get("a")   // touch: "bb" is now the LRU entry
			get("ccc") // overflow: evicts "bb"
			if m.Evictions() != 1 || m.Len() != 2 {
				t.Fatalf("Evictions = %d, Len = %d; want 1, 2", m.Evictions(), m.Len())
			}
			before := computes.Load()
			if get("a"); computes.Load() != before {
				t.Fatal("touched entry 'a' was evicted; LRU order ignores recency")
			}
			if get("bb"); computes.Load() != before+1 {
				t.Fatal("evicted entry 'bb' did not recompute")
			}
		}},
		{"in-flight is never evicted", 1, func(t *testing.T, m *Memo[string, lruVal]) {
			p := NewPooled(2)
			release := make(chan struct{})
			var flightRuns atomic.Int32
			inflight := m.Get(p, "inflight", func() (lruVal, error) {
				flightRuns.Add(1)
				<-release
				return lruVal{payload: "10"}, nil
			})
			// Two values land beside the airborne flight: the second evicts the
			// first, never the flight.
			for _, k := range []string{"resolved", "next"} {
				if _, err := m.Get(p, k, func() (lruVal, error) { return lruVal{payload: k}, nil }).Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if m.Evictions() != 1 {
				t.Fatalf("Evictions = %d, want 1", m.Evictions())
			}
			close(release)
			if v, err := inflight.Wait(); v.payload != "10" || err != nil {
				t.Fatalf("inflight = %+v, %v", v, err)
			}
			// The landed flight is now the one resolved value: a later Get finds it.
			if got, ok := peekPayload(m, "inflight"); !ok || got != "10" {
				t.Fatalf("post-flight Peek = %q, %v", got, ok)
			}
			if flightRuns.Load() != 1 {
				t.Fatalf("in-flight entry ran %d times; eviction touched running work", flightRuns.Load())
			}
		}},
		{"forget drops a running flight", 0, func(t *testing.T, m *Memo[string, lruVal]) {
			p := NewPooled(2)
			first, second := make(chan struct{}), make(chan struct{})
			f1 := m.Get(p, "k", func() (lruVal, error) { <-first; return lruVal{payload: "old"}, nil })
			m.Forget("k")
			f2 := m.Get(p, "k", func() (lruVal, error) { <-second; return lruVal{payload: "new"}, nil })
			close(first)
			f1.Wait()
			// The forgotten flight landed without touching its successor.
			if f, created := m.GetCtx(p, context.Background(), "k", nil); created || f != f2 {
				t.Fatal("a forgotten flight's landing replaced the running one")
			}
			close(second)
			if got, _ := f2.Wait(); got.payload != "new" {
				t.Fatalf("second flight = %q", got.payload)
			}
			if got, ok := peekPayload(m, "k"); !ok || got != "new" {
				t.Fatalf("Peek(k) = %q, %v; want the second flight's value", got, ok)
			}
		}},
		{"zero cap is unbounded", 0, func(t *testing.T, m *Memo[string, lruVal]) {
			for i := 0; i < 64; i++ {
				m.Add(string(rune('A'+i)), lruVal{})
			}
			if m.Evictions() != 0 || m.Len() != 64 {
				t.Fatalf("Evictions = %d, Len = %d; want 0, 64", m.Evictions(), m.Len())
			}
		}},
		{"a lowered cap sheds on the next insert", 0, func(t *testing.T, m *Memo[string, lruVal]) {
			p := New(2)
			for i := 0; i < 8; i++ {
				k := string(rune('a' + i))
				m.Get(p, k, func() (lruVal, error) { return lruVal{payload: k}, nil }).Wait()
			}
			m.SetCap(3)
			if m.Len() != 8 {
				t.Fatalf("SetCap evicted immediately: Len = %d, want 8", m.Len())
			}
			m.Get(p, "z", func() (lruVal, error) { return lruVal{payload: "z"}, nil }).Wait()
			if m.Len() != 3 || m.Evictions() != 6 {
				t.Fatalf("Len = %d, Evictions = %d after the overflow insert; want 3, 6", m.Len(), m.Evictions())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Memo[string, lruVal]
			m.SetCap(tc.cap)
			tc.run(t, &m)
		})
	}
}

// TestMemoCancelledWhileQueuedNotKept: a flight cancelled before it ever ran
// leaves the memo like any other failure, so the next Get computes.
func TestMemoCancelledWhileQueuedNotKept(t *testing.T) {
	p := NewPooled(1)
	release := make(chan struct{})
	Submit(p, func() (int, error) { <-release; return 0, nil }) // occupy the slot
	var memo Memo[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	f, _ := memo.GetCtx(p, ctx, "k", func(context.Context) (int, error) { return 1, nil })
	cancel()
	if _, err := f.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued flight returned %v, want context.Canceled", err)
	}
	close(release)
	if v, err := memo.Get(p, "k", func() (int, error) { return 2, nil }).Wait(); err != nil || v != 2 {
		t.Fatalf("Get after a cancelled flight = %d, %v; want a fresh computation", v, err)
	}
}

// TestMemoRaceHammer drives every entry point at once under a small cap; run
// it with -race. Once quiet, no flight is left behind, the LRU index and
// order agree, the cap holds, and every value is the one its key computes.
func TestMemoRaceHammer(t *testing.T) {
	const (
		capN    = 3
		keys    = 8
		workers = 8
		ops     = 400
	)
	p := NewPooled(4)
	var memo Memo[int, int]
	memo.SetCap(capN)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				switch rng.Intn(4) {
				case 0:
					fail := rng.Intn(4) == 0
					f, _ := memo.GetCtx(p, context.Background(), k, func(context.Context) (int, error) {
						if fail {
							return 0, errors.New("flaky")
						}
						return k * 10, nil
					})
					if v, err := f.Wait(); err == nil && v != k*10 {
						t.Errorf("GetCtx(%d) = %d", k, v)
					}
				case 1:
					if v, ok := memo.Peek(k); ok && v != k*10 {
						t.Errorf("Peek(%d) = %d", k, v)
					}
				case 2:
					memo.Add(k, k*10)
				case 3:
					memo.Forget(k)
				}
			}
		}(int64(w))
	}
	wg.Wait()

	memo.mu.Lock()
	defer memo.mu.Unlock()
	if len(memo.flights) != 0 {
		t.Fatalf("%d flights left in the memo once quiet", len(memo.flights))
	}
	if memo.order.Len() != len(memo.vals) || memo.order.Len() > capN {
		t.Fatalf("LRU holds %d values indexed by %d keys, cap %d", memo.order.Len(), len(memo.vals), capN)
	}
	for k, el := range memo.vals {
		if e := el.Value.(*memoEntry[int, int]); e.key != k || e.val != k*10 {
			t.Fatalf("entry for key %d = %+v", k, e)
		}
	}
}
