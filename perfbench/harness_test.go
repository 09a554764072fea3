package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// tinySizes runs every workload's code at a size that finishes in
// seconds.
var tinySizes = sizes{
	corpusScale:   0.01,
	poolQueries:   1 << 12,
	replicas:      3,
	batch:         64,
	rollEvery:     200 * time.Millisecond,
	stagger:       5 * time.Millisecond,
	scenarioSites: 400,
	months:        4,
	hotSites:      8,
	setupReps:     1,
	minReps:       1,
	reproScale:    0.02,
	reproIDs:      []string{"figure2", "table1", "robots-lint", "scenario-baseline"},
	tag:           "tiny",
}

func tinyOptions(t *testing.T, workload string) *options {
	return &options{
		workload: workload,
		seed:     7,
		seconds:  0.5,
		traceDir: t.TempDir(),
		procs:    runtime.GOMAXPROCS(0),
		sizes:    tinySizes,
		log:      io.Discard,
	}
}

// declared reads the metric names BENCHMARK.json declares in section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(res *result) []string {
	var names []string
	for n, m := range res.Metrics {
		names = append(names, n+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("reported %d metrics %v, BENCHMARK.json declares %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reported metric %q, BENCHMARK.json declares %q", got[i], want[i])
		}
	}
}

// TestWorkloadsPassChecks runs each workload end to end at tiny size:
// every output check passes and every declared end-to-end metric is
// reported, positive, with its declared unit.
func TestWorkloadsPassChecks(t *testing.T) {
	want := declared(t, "end_to_end")
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(context.Background(), tinyOptions(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, reported(res), want)
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

// TestInjectedErrorsAreCaught corrupts one expected decision (fleet) or
// one expected digest (scenario, paper) and requires the run to report
// failures.
func TestInjectedErrorsAreCaught(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := tinyOptions(t, name)
			o.inject = true
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("injected error not caught: correct=%v attempted=%d failed=%d",
					res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs the traced mode once and requires
// every declared per-layer metric, and the span file.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	o := tinyOptions(t, "fleet_frames")
	o.trace = true
	res, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed checks: attempted=%d failed=%d", res.Attempted, res.Failed)
	}
	sameNames(t, reported(res), declared(t, "per_layer"))
	if res.Metrics["policyd.decide_allocs"].Value != 0 {
		t.Errorf("Snapshot.Decide allocates %v times per call, want 0", res.Metrics["policyd.decide_allocs"].Value)
	}
	if _, err := os.Stat(o.traceDir + "/fleet_frames-7.jsonl"); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// TestDigestsAreWellFormed checks the checked-in digest table parses and
// holds entries for the default seed.
func TestDigestsAreWellFormed(t *testing.T) {
	tab, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	o := &options{seed: defaultSeed, sizes: fullSizes}
	for _, w := range []string{"scenario_tiered", "paper_repro"} {
		d, ok := tab[w][digestKey(o)]
		if !ok || len(d.JSON) != 64 || len(d.Text) != 64 {
			t.Errorf("%s: digest for the default seed missing or malformed: %+v", w, d)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := run(context.Background(), tinyOptions(t, "nope")); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
