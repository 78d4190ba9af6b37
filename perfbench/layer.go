package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the names host CPU time is charged to: the repository's
// internal packages that the workloads exercise, "other" for the remaining
// internal packages, "bench" for this harness itself, and "runtime" for
// samples with no repository frame at all (GC, scheduler, idle network
// polling, HTTP plumbing outside any handler).
var layers = []string{
	"cpu", "cache", "workload", "event", "core", "memctrl", "dram",
	"snap", "store", "checkpoint", "runner", "figures",
	"server", "fleet", "client", "obs", "other", "bench", "runtime",
}

var knownLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// chargeLayer is the single rule that turns one profile sample's call stack
// (function names, innermost frame first) into the layer it is charged to:
// the innermost frame that belongs to the repository decides. Standard
// library frames (math/rand under a workload generator, encoding/json under
// the server) are skipped, so their time lands on the nearest calling
// layer; a stack with no repository frame is charged to "runtime".
func chargeLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			return l
		}
	}
	return "runtime"
}

// repoLayer maps a fully qualified function name to its layer, reporting
// false for frames outside the repository.
func repoLayer(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "smtdram/perfbench."):
		return "bench", true
	case strings.HasPrefix(fn, "smtdram."):
		return "other", true // the root facade package
	}
	rest, ok := strings.CutPrefix(fn, "smtdram/internal/")
	if !ok {
		return "", false
	}
	// Package paths hold no '.', so the first one ends the path; nested
	// packages (server/client) are charged to their last element.
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	if knownLayer[rest] {
		return rest, true
	}
	return "other", true
}

// layerTimes accumulates profiled operations: the CPU seconds their profile
// samples charge to each layer, and the process CPU seconds getrusage
// measured around the same spans, which the charged samples must account for.
type layerTimes struct {
	self    map[string]float64
	process float64
}

// profileSlack is how far, as a share, profiled CPU time may stray from the
// process CPU time of the same spans. A sample stands for a whole 10 ms of one
// thread's CPU time, so each span loses up to 10 ms per thread; profiles of
// this benchmark's operations account for 97-99% of the process CPU time.
const profileSlack = 0.1

func newLayerTimes() *layerTimes { return &layerTimes{self: map[string]float64{}} }

// profiled is the total the profile charged.
func (lt *layerTimes) profiled() float64 {
	sum := 0.0
	for _, v := range lt.self {
		sum += v
	}
	return sum
}

// profiler collects CPU profiles around timed operations and charges their
// samples to layers.
type profiler struct {
	buf  bytes.Buffer
	cpu0 time.Duration
}

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return err
	}
	p.cpu0 = cpuTime()
	return nil
}

// stop ends the profile and charges its samples and the span's process CPU
// time into lt.
func (p *profiler) stop(lt *layerTimes) error {
	lt.process += (cpuTime() - p.cpu0).Seconds()
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	for _, s := range stacks {
		lt.self[chargeLayer(s.frames)] += float64(s.nanos) / 1e9
	}
	return nil
}

// addProfile adds one class's profiled operations, divided by ops, to the
// traced metrics: <layer>.self_s.<cls>, their sum profile.cpu_s.<cls>, and
// the process CPU time of the same spans, profile.process_cpu_s.<cls>.
func (o *outcome) addProfile(cls string, lt *layerTimes, ops float64) {
	for l, v := range lt.self {
		o.layer[l+".self_s."+cls] += v / ops
	}
	o.layer["profile.cpu_s."+cls] += lt.profiled() / ops
	o.layer["profile.process_cpu_s."+cls] += lt.process / ops
}

// sampleStack is one decoded CPU profile sample.
type sampleStack struct {
	frames []string // innermost first, inlined frames expanded
	nanos  int64
}

// decodeProfile parses a gzipped pprof protobuf CPU profile (the format
// runtime/pprof writes) into sample stacks. Only the fields needed to name
// frames and weigh samples are read; everything else is skipped.
func decodeProfile(gz []byte) ([]sampleStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs       []string
		samples    []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames  = map[uint64]uint64{}   // function id → string index
		valueIndex = -1
		nTypes     int
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var unit uint64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					unit = v
				}
				return nil
			}); err != nil {
				return err
			}
			// A CPU profile's second sample type is cpu/nanoseconds; the
			// unit's string is checked once the table has been read.
			if nTypes == 1 {
				valueIndex = int(unit)
			}
			nTypes++
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendRepeated(&s.locs, w, v, b)
				case 2:
					return appendRepeated(&s.vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if valueIndex < 0 || valueIndex >= len(strs) || strs[valueIndex] != "nanoseconds" {
		return nil, errors.New("profile: not a CPU profile (no cpu/nanoseconds sample type)")
	}
	out := make([]sampleStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("profile: sample without a nanoseconds value")
		}
		st := sampleStack{nanos: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field in either its packed or its
// one-per-field encoding.
func appendRepeated(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// checkProfile sets each class's profile.coverage, the profiled CPU time
// over the process CPU time of the same spans, and fails the run when the two
// disagree by more than profileSlack: then the decoder or the charging rule
// lost or misweighed samples, and the per-layer figures cannot be trusted.
func checkProfile(o *outcome) {
	for _, cls := range []string{"light", "heavy"} {
		prof, proc := o.layer["profile.cpu_s."+cls], o.layer["profile.process_cpu_s."+cls]
		if proc <= 0 {
			continue
		}
		cov := prof / proc
		o.layer["profile.coverage."+cls] = cov
		o.attempted++
		if math.Abs(cov-1) > profileSlack {
			o.fail(fmt.Errorf("%s: profile accounts for %.3f s of %.3f s process CPU time", cls, prof, proc))
		}
	}
}
