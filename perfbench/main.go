// Command perfbench is the repository benchmark. It drives the simulator, the
// checkpointed figure sweep and the serving fleet only through their public
// calls, times those calls from here, checks every simulated output against
// goldens, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload sim-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separately instrumented run carries the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// setup holds the duration of every set-up the run performed, seconds.
	setup []float64
	// light and heavy are the two end-to-end operation times, ms; samples
	// counts the operations behind each, and units says what one operation
	// is on this workload (a million simulated instructions on sim-mix).
	light, heavy float64
	samples      map[string]int
	units        map[string]string
	detail       map[string]float64
	layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{samples: map[string]int{}, units: map[string]string{}, detail: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed or wrong operation.
func (o *outcome) fail(err error) {
	o.failed++
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
}

// env is one run's fixed parameters.
type env struct {
	root    string
	work    string
	seed    int64
	seconds time.Duration
	trace   bool
	in      inputs
	golden  goldens
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*env) (*outcome, error){
	"sim-mix":     runSimMix,
	"sweep-warm":  runSweepWarm,
	"serve-fleet": runServeFleet,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root    = flag.String("root", ".", "repository checkout root")
		name    = flag.String("workload", "", "sim-mix, sweep-warm or serve-fleet")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 for the per-layer traced run")
		update  = flag.Bool("update-goldens", false, "recompute goldens.json from the current program and exit")
		ladder  = flag.String("ladder", "", "comma-separated serving rates (req/s): run one --seconds phase per rate, print each, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if *update {
		return writeGoldens(*root, work)
	}
	if *ladder != "" {
		var rates []float64
		for _, f := range strings.Split(*ladder, ",") {
			r, err := strconv.ParseFloat(f, 64)
			if err != nil || r <= 0 {
				return fmt.Errorf("bad --ladder rate %q", f)
			}
			rates = append(rates, r)
		}
		e := &env{root: *root, work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
		e.in = makeInputs(e.seed, servePhaseSeconds(e.seconds))
		return runLadder(e, rates)
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	e := &env{root: *root, work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, golden: g}
	e.in = makeInputs(e.seed, servePhaseSeconds(e.seconds))

	start := time.Now()
	o, err := fn(e)
	if err != nil {
		return err
	}
	if e.trace {
		checkProfile(o)
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if e.trace {
		for _, m := range perLayerMetrics() {
			res.Metrics[m.Name] = metric{Value: o.layer[m.Name], Unit: m.Unit}
		}
	} else {
		res.Metrics["setup_s"] = metric{Value: median(o.setup), Unit: "s"}
		res.Metrics["max_rss_mb"] = metric{Value: maxRSSMB(), Unit: "MB"}
		res.Metrics["light_ms"] = metric{Value: o.light, Unit: "ms"}
		res.Metrics["heavy_ms"] = metric{Value: o.heavy, Unit: "ms"}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation completed")
	}
	// A figure with no samples behind it (every operation of its kind
	// failed) is not a number; report it as 0 on a run marked incorrect.
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value, res.Correct = 0, false
			res.Metrics[k] = m
		}
	}

	rec := record(e, *name, o, time.Since(start))
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n", line)
	appendRecord(filepath.Join(build, "perfbench-runs.jsonl"), line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// servePhaseSeconds splits the measured window between the serving phases:
// a third at the low rate, two thirds at the high one.
func servePhaseSeconds(d time.Duration) [2]float64 {
	s := d.Seconds()
	return [2]float64{s / 3, 2 * s / 3}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// record is the run's self-description: what ran, where, and the workload
// figures behind the end-to-end metrics, so two runs on different hosts can
// be told apart from the data alone.
func record(e *env, name string, o *outcome, wall time.Duration) map[string]any {
	failedRatio := 0.0
	if o.attempted > 0 {
		failedRatio = float64(o.failed) / float64(o.attempted)
	}
	detail := map[string]float64{}
	for k, v := range o.detail {
		if !math.IsNaN(v) && !math.IsInf(v, 0) { // JSON has no NaN; a figure without samples is left out
			detail[k] = v
		}
	}
	return map[string]any{
		"workload":      name,
		"seed":          e.seed,
		"seconds":       e.seconds.Seconds(),
		"trace":         e.trace,
		"wall_s":        wall.Seconds(),
		"failed_ratio":  failedRatio,
		"attempted":     o.attempted,
		"setup_samples": o.setup,
		"samples":       o.samples,
		"units":         o.units,
		"detail":        detail,
		"host": map[string]any{
			"cpu_model":  cpuModel(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"commit":     gitCommit(e.root),
			"source":     sourceDigest(e.root),
			"started_at": time.Now().Add(-wall).UTC().Format(time.RFC3339),
		},
	}
}

func appendRecord(path string, line []byte) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
		return
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD when the checkout is a git work tree; benchmark
// checkouts usually are not, and sourceDigest identifies the code instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources (the benchmark excluded), so
// a record names the exact code it measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
