package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// digests.json holds the expected output digests of the scenario_tiered
// and paper_repro runs, per size tag and seed. They were produced by
// --gen-digests, which runs the program in a different configuration
// than the timed runs (one worker, no hot cohort, sequential
// experiments); the program promises identical output at any such
// setting.
//
//go:embed digests.json
var digestsJSON []byte

// outputDigest is the SHA-256 of a run's JSON result and of its rendered
// text.
type outputDigest struct {
	JSON string `json:"json"`
	Text string `json:"text"`
}

// digestTable maps workload → "tag/seed" → digest.
type digestTable map[string]map[string]outputDigest

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

func digestKey(o *options) string { return fmt.Sprintf("%s/%d", o.sizes.tag, o.seed) }

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// oracleDigests memoizes oracle digests within the process, by workload
// and digest key.
var oracleDigests = map[string]outputDigest{}

// expectedDigest returns workload's checked-in digest for this run, or
// computes one with the oracle configuration when the seed has none. The
// second result says which.
func expectedDigest(o *options, workload string, oracle func() (outputDigest, error)) (outputDigest, string, error) {
	t, err := loadDigests()
	if err != nil {
		return outputDigest{}, "", err
	}
	d, ok := t[workload][digestKey(o)]
	src := "checked-in"
	if !ok {
		src = "oracle"
		memo := workload + "/" + digestKey(o)
		if d, ok = oracleDigests[memo]; !ok {
			if d, err = oracle(); err != nil {
				return outputDigest{}, "", err
			}
			oracleDigests[memo] = d
		}
	}
	if o.inject {
		d.JSON = sha([]byte("not the output"))
	}
	return d, src, nil
}

// scenarioSpec is the scenario_tiered workload's spec.
func scenarioSpec(o *options, sites int) scenario.Spec {
	return scenario.Observed(o.seed, sites, o.sizes.months)
}

// scenarioDigest digests a scenario result's JSON and its text report.
func scenarioDigest(res *scenario.Result) (outputDigest, error) {
	js, err := json.Marshal(res)
	if err != nil {
		return outputDigest{}, err
	}
	var text bytes.Buffer
	writeScenarioText(&text, res)
	return outputDigest{JSON: sha(js), Text: sha(text.Bytes())}, nil
}

// writeScenarioText renders a scenario result as cmd/scenario's monthly
// text report does, minus the wall-clock footer.
func writeScenarioText(w io.Writer, res *scenario.Result) {
	sp := res.Spec
	fmt.Fprintf(w, "=== scenario %s ===\n%d sites, %d months from %s, seed %d\n",
		sp.Name, sp.Sites, sp.Months, sp.Start, sp.Seed)
	for _, m := range res.Months {
		fmt.Fprintf(w, "  %-9s %8d %8d %8d %7d %8.1f%% %12d %8d %6.1f%%\n",
			m.Label, m.AdoptedSites, m.ManagedSites, m.ActiveBlockers, m.Visits,
			100*m.RespectRate(), m.DisallowedBytes/1024, m.BlockedRequests, 100*m.StaticGap())
	}
	fmt.Fprintf(w, "  %-24s %s\n", "violation KiB", res.DisallowedKBSeries().Sparkline())
	fmt.Fprintf(w, "  %-24s %s\n", "adoption %", res.AdoptionSeries().Sparkline())
	fmt.Fprintf(w, "  %-24s %s\n", "static-list gap %", res.GapSeries().Sparkline())
	for _, tok := range res.Tokens() {
		fmt.Fprintf(w, "    %-22s %s\n", tok, res.Verdicts[tok])
	}
	fmt.Fprintf(w, "(%d visits, %d KiB from disallowed paths, %d blocked requests)\n",
		res.TotalVisits, res.TotalDisallowedBytes/1024, res.TotalBlockedRequests)
}

// scenarioOracle runs the spec on one worker with no hot cohort.
func scenarioOracle(ctx context.Context, o *options) (outputDigest, error) {
	res, err := scenario.RunTiered(ctx, scenarioSpec(o, o.sizes.scenarioSites), scenario.TierOptions{Workers: 1})
	if err != nil {
		return outputDigest{}, err
	}
	return scenarioDigest(res)
}

// tieredRun is one timed RunTiered call of the workload.
func tieredRun(ctx context.Context, o *options, spec scenario.Spec, ts *scenario.TierStats) (*scenario.Result, error) {
	return scenario.RunTiered(ctx, spec, scenario.TierOptions{HotSites: o.sizes.hotSites, Workers: o.procs, Stats: ts})
}

// repStats is the tally of a repeated-run workload.
type repStats struct {
	wall, cpu []time.Duration
	ops       float64 // work units per repetition
	attempted int64
	failed    int64
	rt0, rt1  runtimeCounters
	lastStats scenario.TierStats // of the last tiered run
}

// repeat runs rep until at least minReps repetitions and dur have passed,
// timing each one and checking its output digest against want.
func repeat(dur time.Duration, minReps int, want outputDigest, rec *spanRecorder, name string,
	rep func() (outputDigest, error)) (*repStats, error) {
	rs := &repStats{}
	runtime.GC()
	rs.rt0 = readRuntime()
	start := time.Now()
	for len(rs.wall) < minReps || time.Since(start) < dur {
		c0, t0 := cpuTime(), time.Now()
		got, err := rep()
		t1 := time.Now()
		rec.record(0, 0, name, t0, t1)
		rs.wall = append(rs.wall, t1.Sub(t0))
		rs.cpu = append(rs.cpu, cpuTime()-c0)
		rs.attempted++
		if err != nil {
			return nil, err
		}
		if got != want {
			rs.failed++
		}
	}
	rs.rt1 = readRuntime()
	return rs, nil
}

// setRepMetrics reports a repeated-run workload's end-to-end metrics:
// work per wall- and CPU-second from the median repetition, and the
// median repetition as call_p50_us. A run holds too few repetitions for
// a p99, so call_p99_us is the upper quartile of its repetitions.
func setRepMetrics(log io.Writer, res *result, rs *repStats, setupS float64) {
	sorted := append([]time.Duration(nil), rs.wall...)
	sortDurations(sorted)
	wall, cpu := medianDur(rs.wall), medianDur(rs.cpu)
	res.Attempted, res.Failed = rs.attempted, rs.failed
	fmt.Fprintf(log, "# per-run wall %v\n# per-run cpu %v\n", rs.wall, rs.cpu)
	res.set("ops_per_s", rs.ops/wall.Seconds(), "1/s")
	res.set("ops_per_cpu_s", rs.ops/cpu.Seconds(), "1/cpu-s")
	res.set("call_p50_us", us(wall), "us")
	res.set("call_p99_us", us(pctile(sorted, 0.75)), "us")
	res.set("setup_s", setupS, "s")
	res.set("max_rss_mb", maxRSSMB(), "MiB")
}

// setupScenario builds and validates the spec and warms the process with
// a small run of the same world, so lazily built program state is paid
// here rather than in the first timed run.
func setupScenario(ctx context.Context, o *options) (scenario.Spec, error) {
	spec := scenarioSpec(o, o.sizes.scenarioSites)
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	warm := scenarioSpec(o, o.sizes.scenarioSites/50)
	if _, err := tieredRun(ctx, o, warm, nil); err != nil {
		return spec, fmt.Errorf("warm-up run: %w", err)
	}
	return spec, nil
}

func runScenarioTiered(ctx context.Context, o *options) (*result, error) {
	spec, setupS, err := timeSetup(o.sizes.setupReps,
		func() (scenario.Spec, error) { return setupScenario(ctx, o) }, func(scenario.Spec) {})
	if err != nil {
		return nil, err
	}
	rs, src, err := scenarioReps(ctx, o, spec, nil, time.Duration(o.seconds*float64(time.Second)), o.sizes.minReps)
	if err != nil {
		return nil, err
	}
	res := &result{}
	setRepMetrics(o.log, res, rs, setupS)
	fmt.Fprintf(o.log, "# scenario_tiered: %d runs of %d site-months, output digests %s; "+
		"site_months_per_s=%.0f site_months_per_cpu_s=%.0f (tiered: %d hot + %d cold site-months)\n",
		len(rs.wall), int(rs.ops), src, res.Metrics["ops_per_s"].Value, res.Metrics["ops_per_cpu_s"].Value,
		rs.lastStats.HotSiteMonths, rs.lastStats.ColdSiteMonths)
	return res, nil
}

// scenarioReps times repeated tiered runs of the workload spec.
func scenarioReps(ctx context.Context, o *options, spec scenario.Spec, rec *spanRecorder, dur time.Duration, minReps int) (*repStats, string, error) {
	want, src, err := expectedDigest(o, "scenario_tiered", func() (outputDigest, error) { return scenarioOracle(ctx, o) })
	if err != nil {
		return nil, "", err
	}
	var ts scenario.TierStats
	rs, err := repeat(dur, minReps, want, rec, "scenario.run_tiered", func() (outputDigest, error) {
		ts = scenario.TierStats{}
		r, err := tieredRun(ctx, o, spec, &ts)
		if err != nil {
			return outputDigest{}, err
		}
		return scenarioDigest(r)
	})
	if err != nil {
		return nil, "", err
	}
	rs.ops = float64(spec.Sites * spec.Months)
	rs.lastStats = ts
	return rs, src, nil
}

// reproConfig is the paper_repro configuration: QuickConfig with the
// workload seed and nproc workers.
func reproConfig(o *options, workers int) core.Config {
	cfg := core.QuickConfig()
	cfg.Seed = o.seed
	cfg.Workers = workers
	if o.sizes.reproScale > 0 {
		cfg.Scale = o.sizes.reproScale
	}
	return cfg
}

// reproRun runs the experiments once on a fresh Env, as cmd/somesite
// does with text output, and digests the results and the text.
func reproRun(ctx context.Context, o *options, cfg core.Config, parallelism int, ids []string) (outputDigest, error) {
	var text bytes.Buffer
	results, err := core.RunAll(ctx, cfg, core.Options{Parallelism: parallelism, IDs: ids, Sink: core.NewTextSink(&text)})
	if err != nil {
		return outputDigest{}, err
	}
	js, err := json.Marshal(results)
	if err != nil {
		return outputDigest{}, err
	}
	return outputDigest{JSON: sha(js), Text: sha(text.Bytes())}, nil
}

// reproWarmIDs are the experiments the paper_repro set-up runs once to
// warm the process.
var reproWarmIDs = []string{"figure2", "robots-lint"}

func runPaperRepro(ctx context.Context, o *options) (*result, error) {
	_, setupS, err := timeSetup(o.sizes.setupReps, func() (struct{}, error) {
		_, err := reproRun(ctx, o, reproConfig(o, o.procs), o.procs, reproWarmIDs)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rs, src, err := reproReps(ctx, o, nil, time.Duration(o.seconds*float64(time.Second)), o.sizes.minReps)
	if err != nil {
		return nil, err
	}
	res := &result{}
	setRepMetrics(o.log, res, rs, setupS)
	fmt.Fprintf(o.log, "# paper_repro: %d reproductions, output digests %s; repro_wall_s=%.3f repro_cpu_s=%.3f\n",
		len(rs.wall), src, res.Metrics["call_p50_us"].Value/1e6, 1/res.Metrics["ops_per_cpu_s"].Value)
	return res, nil
}

// reproReps times repeated reproductions.
func reproReps(ctx context.Context, o *options, rec *spanRecorder, dur time.Duration, minReps int) (*repStats, string, error) {
	want, src, err := expectedDigest(o, "paper_repro", func() (outputDigest, error) {
		return reproRun(ctx, o, reproConfig(o, 1), 1, o.sizes.reproIDs)
	})
	if err != nil {
		return nil, "", err
	}
	cfg := reproConfig(o, o.procs)
	rs, err := repeat(dur, minReps, want, rec, "core.run_all", func() (outputDigest, error) {
		return reproRun(ctx, o, cfg, o.procs, o.sizes.reproIDs)
	})
	if err != nil {
		return nil, "", err
	}
	rs.ops = 1
	return rs, src, nil
}
