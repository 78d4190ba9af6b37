package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func TestChargeLayer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"stdlib frame under workload", []string{
			"math/rand.(*rngSource).Uint64",
			"math/rand.(*Rand).Int63",
			"smtdram/internal/workload.(*Gen).Next",
			"smtdram/internal/cpu.(*CPU).fetch",
			"smtdram/internal/core.(*Simulator).RunContext",
		}, "workload"},
		{"runtime only", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}, "runtime"},
		{"nested repo frames", []string{
			"smtdram/internal/dram.(*Channel).issue",
			"smtdram/internal/memctrl.(*Controller).schedule",
			"smtdram/internal/event.(*Queue).DrainQuiet",
			"smtdram/internal/core.(*Simulator).RunContext",
		}, "dram"},
		{"nested package path", []string{
			"net/http.(*persistConn).roundTrip",
			"smtdram/internal/server/client.(*Client).doOnce",
			"smtdram/internal/server.(*Server).submit",
		}, "client"},
		{"generic instantiation", []string{
			"smtdram/internal/runner.SubmitNamedCtx[go.shape.struct { smtdram/internal/core.Cycles uint64 }].func1",
		}, "runner"},
		{"inlined closure", []string{
			"smtdram/internal/checkpoint.(*Cache).Get.func1",
		}, "checkpoint"},
		{"internal package outside the named layers", []string{
			"smtdram/internal/addrmap.(*Mapper).Map",
			"smtdram/internal/memctrl.(*Controller).Enqueue",
		}, "other"},
		{"benchmark harness", []string{
			"encoding/json.Marshal",
			"main.drive.func2",
		}, "bench"},
	} {
		if got := chargeLayer(tc.stack); got != tc.want {
			t.Errorf("%s: charged to %q, want %q", tc.name, got, tc.want)
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) [32]byte {
	var h [32]byte
	for end := time.Now().Add(d); time.Now().Before(end); {
		h = sha256.Sum256(h[:])
	}
	return h
}

// A live CPU profile decodes, every sample is charged, and the layer sums
// add up to the profile's total.
func TestProfileDecodesAndCharges(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	lt := map[string]float64{}
	found := false
	for _, s := range stacks {
		total += s.nanos
		lt[chargeLayer(s.frames)] += float64(s.nanos) / 1e9
		for _, f := range s.frames {
			if f == "smtdram/perfbench.burnCPU" {
				found = true
			}
		}
	}
	if total == 0 || !found {
		t.Fatalf("profile holds %d ns, burnCPU frame found: %v", total, found)
	}
	charged := 0.0
	for _, v := range lt {
		charged += v
	}
	if diff := charged - float64(total)/1e9; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("layers sum to %v s, profile to %v s", charged, float64(total)/1e9)
	}
	if lt["bench"] == 0 {
		t.Fatalf("burnCPU's samples were not charged to the harness: %v", lt)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage decoded as a profile")
	}
}

// The profiler's charged samples account for the process CPU time it
// measured around the same span, within profileSlack.
func TestProfileAccountsForProcessCPU(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnCPU(500 * time.Millisecond)
	lt := newLayerTimes()
	if err := p.stop(lt); err != nil {
		t.Fatal(err)
	}
	if cov := lt.profiled() / lt.process; cov < 1-profileSlack || cov > 1+profileSlack {
		t.Fatalf("profile charged %v s of %v s process CPU time", lt.profiled(), lt.process)
	}
	if lt.self["bench"] == 0 {
		t.Fatalf("burnCPU's samples were not charged to the harness: %v", lt.self)
	}
}

// BENCHMARK.json lists exactly the metrics the benchmark prints.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics()) {
		t.Errorf("end_to_end differs:\n file %v\n code %v", spec.EndToEnd, endToEndMetrics())
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics()) {
		t.Errorf("per_layer differs:\n file %v\n code %v", spec.PerLayer, perLayerMetrics())
	}
}
