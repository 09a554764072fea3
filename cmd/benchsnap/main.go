// Command benchsnap runs a fixed, reduced-scale subset of the repository
// benchmark suite and writes a JSON snapshot — ns/op, bytes/op,
// allocs/op and each benchmark's custom metrics — seeding the repo's
// performance trajectory. CI runs it on every push and uploads the
// artifact; compare snapshots across commits with the -baseline flag,
// which embeds a previous snapshot and computes speedups:
//
//	go run ./cmd/benchsnap -o BENCH_pr3.json -baseline old.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"repro/internal/blocking"
	"repro/internal/crawler"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/robots"
	"repro/internal/runstore"
	"repro/internal/scenario"
	"repro/internal/webserver"
)

const snapSeed = 20251028

// result is one benchmark's snapshot entry.
type result struct {
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// snapshot is the file format.
type snapshot struct {
	Schema    string `json:"schema"`
	Generated string `json:"generated"`
	runstore.Attribution
	Benchmarks map[string]result `json:"benchmarks"`
	// Baseline is a previous snapshot's benchmark map, embedded verbatim
	// when -baseline is given, so one file carries the before/after pair.
	Baseline map[string]result `json:"baseline,omitempty"`
	// SpeedupVsBaseline is baseline ns/op divided by current ns/op per
	// benchmark present in both (>1 means faster now).
	SpeedupVsBaseline map[string]float64 `json:"speedup_vs_baseline,omitempty"`
}

type entry struct {
	name string
	fn   func(b *testing.B)
}

// registry holds the suite in execution order. Entries that exercise
// APIs introduced alongside this tool register themselves from extra.go;
// everything in this file exercises the repo's current production paths
// (sites are hosted on a shared-listener webserver.Farm, as in the
// experiments), so snapshots track what the experiments actually run.
var registry []entry

func register(name string, fn func(b *testing.B)) {
	registry = append(registry, entry{name: name, fn: fn})
}

func init() {
	register("netsim_http", func(b *testing.B) {
		nw := netsim.New()
		farm, err := webserver.NewFarm(nw, "203.0.113.240")
		if err != nil {
			b.Fatal(err)
		}
		defer farm.Close()
		site, err := farm.StartSite(webserver.WildcardDisallowSite("snap.test", "203.0.113.210"))
		if err != nil {
			b.Fatal(err)
		}
		client := nw.HTTPClient("198.51.100.210")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(site.URL() + "/robots.txt")
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})

	register("crawler_site_crawl", func(b *testing.B) {
		nw := netsim.New()
		farm, err := webserver.NewFarm(nw, "203.0.113.240")
		if err != nil {
			b.Fatal(err)
		}
		defer farm.Close()
		site, err := farm.StartSite(webserver.Config{
			Domain: "snapcrawl.test", IP: "203.0.113.211",
			Pages: webserver.ContentPages("snapcrawl.test"),
		})
		if err != nil {
			b.Fatal(err)
		}
		cr, err := crawler.New(nw, crawler.Profile{
			Token: "GPTBot", SourceIP: "24.0.1.98", Behavior: crawler.Compliant,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cr.Crawl(ctx, site.URL()); err != nil {
				b.Fatal(err)
			}
		}
	})

	register("robots_parse", func(b *testing.B) {
		body := snapRobotsBody()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rb := robots.ParseString(body); len(rb.Groups) == 0 {
				b.Fatal("no groups")
			}
		}
	})

	register("robots_match", func(b *testing.B) {
		rb := robots.ParseString(snapRobotsBody())
		paths := []string{"/", "/gallery/piece.png", "/blog/2024/post?q=1", "/search"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.Allowed("GPTBot", paths[i%len(paths)])
		}
	})

	register("passive_study", func(b *testing.B) {
		var respected float64
		for i := 0; i < b.N; i++ {
			res, err := measure.RunPassive(context.Background(), snapSeed)
			if err != nil {
				b.Fatal(err)
			}
			respected = 0
			for _, v := range res.Verdicts {
				if v == measure.Respected {
					respected++
				}
			}
		}
		b.ReportMetric(respected, "respecting_crawlers")
	})

	register("active_blocking_survey", func(b *testing.B) {
		var blockers float64
		for i := 0; i < b.N; i++ {
			res, err := blocking.RunSurvey(context.Background(), 200, snapSeed, 8, blocking.DefaultDetector)
			if err != nil {
				b.Fatal(err)
			}
			blockers = float64(res.ActiveBlockers)
		}
		b.ReportMetric(blockers, "active_blockers")
	})

	register("scenario_engine", func(b *testing.B) {
		var visits float64
		for i := 0; i < b.N; i++ {
			res, err := scenario.Run(context.Background(),
				scenario.Observed(snapSeed, 12, 12), 4)
			if err != nil {
				b.Fatal(err)
			}
			visits = float64(res.TotalVisits)
		}
		b.ReportMetric(visits, "crawl_visits")
	})

	// scenario_engine_store is scenario_engine with the run store
	// attached: the pair measures the persistence overhead (acceptance
	// target: <5% over scenario_engine).
	register("scenario_engine_store", func(b *testing.B) {
		st, err := runstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		spec := scenario.Observed(snapSeed, 12, 12)
		var visits float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w, err := st.BeginScenario(
				runstore.NewMeta(runstore.KindScenario, spec.Name, spec.Seed, spec.CacheKey()))
			if err != nil {
				b.Fatal(err)
			}
			res, err := scenario.RunObserved(context.Background(), spec, 4, w)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			visits = float64(res.TotalVisits)
		}
		b.ReportMetric(visits, "crawl_visits")
	})
}

// snapRobotsBody renders a realistic multi-group robots.txt.
func snapRobotsBody() string {
	bld := robots.NewBuilder()
	bld.Comment("benchsnap file")
	bld.Group("*").Disallow("/admin/", "/search", "/shop").Allow("/shop/public")
	bld.Group("GPTBot", "CCBot", "ClaudeBot", "Bytespider", "Google-Extended").Disallow("/images/", "/gallery/")
	bld.Group("Googlebot").Disallow("/generated/a/", "/generated/b/", "/generated/c/")
	bld.Sitemap("https://snap.example/sitemap.xml")
	return bld.String()
}

func main() {
	out := flag.String("o", "BENCH_pr3.json", "output path for the JSON snapshot")
	baselinePath := flag.String("baseline", "", "previous snapshot to embed for before/after comparison")
	benchFilter := flag.String("bench", "", "regexp filtering benchmark names (empty = all)")
	count := flag.Int("count", 1, "runs per benchmark; the fastest (min ns/op) run is recorded to damp machine noise")
	maxRegress := flag.Float64("max-regress", 0, "with -baseline: exit 1 if any benchmark's ns/op regresses by more than this fraction (e.g. 0.10 = 10%); 0 disables the gate")
	history := flag.Bool("history", false, "print the per-benchmark trajectory across checked-in BENCH_pr*.json snapshots and exit (no benchmarks run)")
	merge := flag.Bool("merge", false, "merge the benchmark maps of the snapshot files given as arguments into one -o snapshot and exit (no benchmarks run)")
	flag.Parse()
	if *merge {
		if err := mergeSnapshots(*out, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: -merge: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *history {
		files := flag.Args()
		if len(files) == 0 {
			var err error
			if files, err = filepath.Glob("BENCH_pr*.json"); err != nil || len(files) == 0 {
				fmt.Fprintln(os.Stderr, "benchsnap: -history: no BENCH_pr*.json snapshots found (pass paths as arguments)")
				os.Exit(2)
			}
		}
		if err := printHistory(os.Stdout, files); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *count < 1 {
		*count = 1
	}

	var filter *regexp.Regexp
	if *benchFilter != "" {
		var err error
		if filter, err = regexp.Compile(*benchFilter); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: bad -bench regexp: %v\n", err)
			os.Exit(2)
		}
	}

	snap := snapshot{
		Schema:      "repro-benchsnap/1",
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Attribution: runstore.Stamp(),
		Benchmarks:  make(map[string]result),
	}
	for _, e := range registry {
		if filter != nil && !filter.MatchString(e.name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchsnap: running %s...\n", e.name)
		var res result
		for run := 0; run < *count; run++ {
			r := testing.Benchmark(e.fn)
			cand := result{
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if len(r.Extra) > 0 {
				cand.Metrics = make(map[string]float64, len(r.Extra))
				for k, v := range r.Extra {
					cand.Metrics[k] = v
				}
			}
			if run == 0 || cand.NsPerOp < res.NsPerOp {
				res = cand
			}
		}
		snap.Benchmarks[e.name] = res
		fmt.Fprintf(os.Stderr, "benchsnap: %-24s %12.0f ns/op %8d B/op %6d allocs/op\n",
			e.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	var regressions []string
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: reading baseline: %v\n", err)
			os.Exit(1)
		}
		var base snapshot
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: parsing baseline: %v\n", err)
			os.Exit(1)
		}
		snap.Baseline = base.Benchmarks
		snap.SpeedupVsBaseline = make(map[string]float64)
		for name, cur := range snap.Benchmarks {
			if b, ok := base.Benchmarks[name]; ok && cur.NsPerOp > 0 {
				speedup := b.NsPerOp / cur.NsPerOp
				snap.SpeedupVsBaseline[name] = speedup
				if *maxRegress > 0 && cur.NsPerOp > b.NsPerOp*(1+*maxRegress) {
					regressions = append(regressions,
						fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.1f%% slower, budget %.0f%%)",
							name, b.NsPerOp, cur.NsPerOp, (cur.NsPerOp/b.NsPerOp-1)*100, *maxRegress*100))
				}
			}
		}
	}

	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %s (%d benchmarks)\n", *out, len(snap.Benchmarks))
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchsnap: FAIL: %d benchmark(s) regressed beyond the -max-regress budget:\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "benchsnap:   %s\n", r)
		}
		os.Exit(1)
	}
}

// mergeSnapshots combines the benchmark maps of several benchsnap-schema
// files (e.g. one per loadgen process in a fleet run) into a single
// snapshot at out. When two inputs carry the same benchmark name, the
// faster entry (min ns/op) wins, mirroring the -count selection rule;
// its metrics that read as totals across processes (decisions, QPS) stay
// per-process, so give concurrent processes distinct -name values when
// the aggregate matters.
func mergeSnapshots(out string, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("no input snapshots given")
	}
	merged := snapshot{
		Schema:      "repro-benchsnap/1",
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Attribution: runstore.Stamp(),
		Benchmarks:  make(map[string]result),
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var s snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if len(s.Benchmarks) == 0 {
			return fmt.Errorf("%s: no benchmarks (schema %q)", f, s.Schema)
		}
		for name, r := range s.Benchmarks {
			if prev, ok := merged.Benchmarks[name]; ok {
				fmt.Fprintf(os.Stderr, "benchsnap: -merge: %s appears in multiple inputs; keeping the faster run\n", name)
				if prev.NsPerOp <= r.NsPerOp {
					continue
				}
			}
			merged.Benchmarks[name] = r
		}
	}
	data, err := json.MarshalIndent(&merged, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %s (%d benchmarks merged from %d files)\n",
		out, len(merged.Benchmarks), len(files))
	return nil
}

// prNumber orders snapshot files by the PR number embedded in the
// conventional BENCH_pr<N>.json name; other names sort after, by name.
var prNumberRe = regexp.MustCompile(`pr(\d+)`)

func prNumber(path string) int {
	if m := prNumberRe.FindStringSubmatch(filepath.Base(path)); m != nil {
		if n, err := strconv.Atoi(m[1]); err == nil {
			return n
		}
	}
	return 1 << 30
}

// printHistory renders each benchmark's trajectory — ns/op and
// allocs/op per snapshot, oldest first — across the given snapshot
// files. The final column shows the overall trend: first-to-last ns/op
// speedup.
func printHistory(w io.Writer, files []string) error {
	sort.Slice(files, func(i, j int) bool {
		ni, nj := prNumber(files[i]), prNumber(files[j])
		if ni != nj {
			return ni < nj
		}
		return files[i] < files[j]
	})

	snaps := make([]snapshot, len(files))
	names := make(map[string]struct{})
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &snaps[i]); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		for name := range snaps[i].Benchmarks {
			names[name] = struct{}{}
		}
	}
	ordered := make([]string, 0, len(names))
	for name := range names {
		ordered = append(ordered, name)
	}
	sort.Strings(ordered)

	labels := make([]string, len(files))
	for i, f := range files {
		labels[i] = trimSnapName(f)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark (ns/op | allocs)\t%s\ttrend\n", strings.Join(labels, "\t"))
	for _, name := range ordered {
		cells := make([]string, len(snaps))
		var first, last float64
		for i, s := range snaps {
			r, ok := s.Benchmarks[name]
			if !ok {
				cells[i] = "-"
				continue
			}
			cells[i] = fmt.Sprintf("%s|%d", formatNs(r.NsPerOp), r.AllocsPerOp)
			if first == 0 {
				first = r.NsPerOp
			}
			last = r.NsPerOp
		}
		trend := "-"
		if first > 0 && last > 0 {
			trend = fmt.Sprintf("%.2fx", first/last)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, strings.Join(cells, "\t"), trend)
	}
	return tw.Flush()
}

// trimSnapName reduces BENCH_pr8.json to pr8 for column headers.
func trimSnapName(path string) string {
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	return strings.TrimPrefix(name, "BENCH_")
}

// formatNs renders ns/op compactly: ns below 10µs, µs below 10ms, else ms.
func formatNs(ns float64) string {
	switch {
	case ns >= 1e7:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e4:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
