// Command perfbench is the repository benchmark. It drives the program's
// public packages from outside, the way its commands do, on four
// workloads — one per path a user sees:
//
//	fleet_frames     decisions through the policyd fleet gateway, binary frames, with staggered snapshot rollovers
//	fleet_json       decisions through the gateway, one JSON GET per decision, snapshot pinned
//	scenario_tiered  a 100,000-site, 12-month tiered counterfactual scenario run
//	paper_repro      the reproduction of all of the paper's experiments at QuickConfig
//
// BENCHMARK.json gates fleet_frames and scenario_tiered; the other two
// are too noisy on a small shared machine to hold a regression bound
// and are kept for manual runs and the traced run's ladders.
//
// Every run checks every output it measures and counts failures against
// attempts. With --trace 0 it reports the end-to-end metrics of the chosen
// workload; with --trace 1 it times the layers underneath instead and
// prints each ladder (per-rung cost, delta from the rung before, and the
// residual against the end-to-end number). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench --workload fleet_frames --seed 20251028 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 20251028

// options are the command-line settings plus the sizes a self-test
// shrinks.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	procs    int // GOMAXPROCS, client goroutines and client connections
	sizes    sizes
	// inject corrupts one expected output, so a self-test can prove the
	// checks catch a wrong answer.
	inject bool
	// log receives the human-readable report printed before the result
	// line.
	log io.Writer
}

// sizes are the workload dimensions. fullSizes is what the benchmark
// measures; the self-test runs the same code at tinySizes.
type sizes struct {
	corpusScale   float64 // policyd snapshot corpus scale
	poolQueries   int     // fleet query pool size
	replicas      int
	batch         int           // frame batch size
	rollEvery     time.Duration // fleet_frames rollover period
	stagger       time.Duration // delay between replica swaps in a rollover
	scenarioSites int
	months        int
	hotSites      int
	setupReps     int      // set-ups per run; setup_s is their median
	minReps       int      // scenario/paper repetitions per run, at least
	reproScale    float64  // 0 = QuickConfig's corpus scale
	reproIDs      []string // nil = every experiment
	// tag names the size set in digests.json keys.
	tag string
}

var fullSizes = sizes{
	corpusScale:   0.05,
	poolQueries:   1 << 16,
	replicas:      3,
	batch:         64,
	rollEvery:     1500 * time.Millisecond,
	stagger:       20 * time.Millisecond,
	scenarioSites: 100_000,
	months:        12,
	hotSites:      32,
	setupReps:     3,
	minReps:       3,
	tag:           "full",
}

// fleetCorpusSeed fixes the fleet's policy corpus; the workload seed
// drives only the query pool.
const fleetCorpusSeed = 20251028

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its end-to-end runner.
var workloads = map[string]func(ctx context.Context, o *options) (*result, error){
	"fleet_frames":    runFleetFrames,
	"fleet_json":      runFleetJSON,
	"scenario_tiered": runScenarioTiered,
	"paper_repro":     runPaperRepro,
}

func main() {
	o := &options{log: os.Stdout, sizes: fullSizes}
	flag.StringVar(&o.workload, "workload", "fleet_frames", "workload name")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory for span files of traced runs")
	genDigests := flag.String("gen-digests", "", "comma-separated seeds: print digests.json entries for them and exit")
	flag.Parse()
	o.trace = *trace == 1
	o.procs = runtime.NumCPU()
	runtime.GOMAXPROCS(o.procs)

	if *genDigests != "" {
		if err := printDigests(context.Background(), o, *genDigests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload run (end-to-end or traced) and returns its
// result line. It prints the attribution and report to o.log.
func run(ctx context.Context, o *options) (*result, error) {
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	attr := attribution(o)
	fmt.Fprintf(o.log, "# attribution %s\n", attr)
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(ctx, o)
	} else {
		res, err = workloads[o.workload](ctx, o)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report(o.log, res)
	return res, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints every metric with its unit, one per line.
func report(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# checks: correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "#   %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// printDigests computes the oracle digests of both digest-checked
// workloads for each seed and prints them as digests.json.
func printDigests(ctx context.Context, o *options, seeds string) error {
	t := digestTable{"scenario_tiered": {}, "paper_repro": {}}
	for _, f := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q: %w", f, err)
		}
		o.seed = seed
		d, err := scenarioOracle(ctx, o)
		if err != nil {
			return err
		}
		t["scenario_tiered"][digestKey(o)] = d
		if d, err = reproRun(ctx, o, reproConfig(o, 1), 1, o.sizes.reproIDs); err != nil {
			return err
		}
		t["paper_repro"][digestKey(o)] = d
		fmt.Fprintf(os.Stderr, "seed %d done\n", seed)
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
