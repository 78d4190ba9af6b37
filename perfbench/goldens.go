package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/figures"
	"smtdram/internal/store"
)

// goldenFile holds the expected simulated outputs. Simulation is
// deterministic, so any difference is a wrong answer, never noise. It is
// regenerated with -update-goldens only when results are meant to change.
//
//go:embed goldens.json
var goldenFile []byte

// simGolden is one sim-mix configuration's expected outcome.
type simGolden struct {
	Cycles   uint64 `json:"cycles"`
	Skiprate string `json:"skiprate"`
	Digest   string `json:"digest"`
}

// sweepGolden is the sweep's expected outcome, keyed by its seed: the Figure
// 6 rows' digest and the number of distinct warmup prefixes it checkpoints.
type sweepGolden struct {
	Rows        string `json:"rows"`
	Checkpoints uint64 `json:"checkpoints"`
}

type goldens struct {
	Sim   map[string]simGolden   `json:"sim"`
	Sweep map[string]sweepGolden `json:"sweep"`
}

// The serialized 4×mcf machine's pins at seed 42, shared with the
// repository's BenchmarkRunMEMMix and CI gate.
const (
	pinnedMEMMixCycles   = 968233
	pinnedMEMMixSkiprate = "0.8356"
)

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		return g, fmt.Errorf("goldens: %w", err)
	}
	pin := g.Sim["4xmcf-serial/42"]
	if pin.Cycles != pinnedMEMMixCycles || pin.Skiprate != pinnedMEMMixSkiprate {
		return g, fmt.Errorf("goldens: 4xmcf-serial/42 reads %d simcycles at skiprate %s, want the pinned %d at %s",
			pin.Cycles, pin.Skiprate, pinnedMEMMixCycles, pinnedMEMMixSkiprate)
	}
	return g, nil
}

func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

func skiprate(s *core.Simulator) string {
	return strconv.FormatFloat(s.SkipStats().Rate(), 'f', 4, 64)
}

// checkSim compares one finished sim-mix run with its golden.
func (g goldens) checkSim(c simCase, s *core.Simulator, res core.Result) error {
	want, ok := g.Sim[c.key()]
	if !ok {
		return fmt.Errorf("%s: no golden", c.key())
	}
	got := simGolden{Cycles: res.Cycles, Skiprate: skiprate(s), Digest: digest(res)}
	if got != want {
		return fmt.Errorf("%s: got %+v, want %+v", c.key(), got, want)
	}
	return nil
}

// checkSweep compares one sweep's rows with its golden.
func (g goldens) checkSweep(seed int64, rows []figures.Fig6Row) error {
	want, ok := g.Sweep[strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("sweep seed %d: no golden", seed)
	}
	if got := digest(rows); got != want.Rows {
		return fmt.Errorf("sweep seed %d: rows digest %s, want %s", seed, got, want.Rows)
	}
	return nil
}

// writeGoldens recomputes every golden from the current program and writes
// goldens.json into the benchmark's source directory.
func writeGoldens(root, work string) error {
	g := goldens{Sim: map[string]simGolden{}, Sweep: map[string]sweepGolden{}}
	for _, seed := range goldenSeeds {
		for _, c := range simCatalog() {
			c.Cfg.Seed = seed
			s, err := core.NewSimulator(c.Cfg)
			if err != nil {
				return err
			}
			res, err := s.Run()
			if err != nil {
				return fmt.Errorf("%s: %w", c.key(), err)
			}
			g.Sim[c.key()] = simGolden{Cycles: res.Cycles, Skiprate: skiprate(s), Digest: digest(res)}
		}
	}
	ck, err := checkpoint.Open(filepath.Join(work, "goldens-sweep"), store.FsyncOff)
	if err != nil {
		return err
	}
	rows, err := figures.Fig6(sweepOptions(sweepSeed, ck))
	if err != nil {
		return err
	}
	g.Sweep[strconv.FormatInt(sweepSeed, 10)] = sweepGolden{Rows: digest(rows), Checkpoints: ck.Snapshot().Misses}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "goldens.json"), append(b, '\n'), 0o644)
}
