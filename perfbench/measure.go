package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far, client
// goroutines included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median for durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// pctile returns the nearest-rank q-quantile of sorted ds.
func pctile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup runs setup reps times, closing every environment but the
// last before the next set-up starts, and returns the last one and the
// median set-up time in seconds.
func timeSetup[T any](reps int, setup func() (T, error), closeEnv func(T)) (T, float64, error) {
	var env T
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			closeEnv(e)
		}
		env = e
	}
	return env, median(times), nil
}

// runtimeCounters samples the Go runtime's cumulative GC CPU, total CPU
// and heap allocation counters.
type runtimeCounters struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeCounters {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeCounters{gcCPU: val(samples[0]), totalCPU: val(samples[1]), allocBytes: val(samples[2])}
}

// gcFrac is the share of runtime CPU time spent in the GC between a and b.
func gcFrac(a, b runtimeCounters) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one operation share a trace ID; Parent names the span
// that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// record stores a finished span and returns its ID.
func (r *spanRecorder) record(trace, parent uint64, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	if trace == 0 {
		trace = id
	}
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	r.mu.Unlock()
	return id
}

// writeFile writes the spans as JSON lines to dir/name.
func (r *spanRecorder) writeFile(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribution names what produced a result: source revision, toolchain,
// hardware and settings.
func attribution(o *options) string {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	a := map[string]any{
		"rev":        rev,
		"src_sha256": sourceDigest(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       o.seed,
		"workload":   o.workload,
		"trace":      o.trace,
	}
	b, _ := json.Marshal(a) // a map of strings, numbers and bools always encodes
	return string(b)
}

// sourceDigest hashes the repository's Go sources and module files, so
// a result names the code it measured even where the checkout carries no
// git metadata. The repository root is the working directory or its
// parent (the self-test runs from perfbench/).
func sourceDigest() string {
	root := "."
	if data, err := os.ReadFile("go.mod"); err != nil || !strings.HasPrefix(string(data), "module repro\n") {
		root = ".."
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fmtDur is a compact duration for the report.
func fmtDur(d time.Duration) string { return fmt.Sprint(d.Round(time.Microsecond)) }
