// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, plus the ablations called out in DESIGN.md and
// micro-benchmarks for the hot substrates. Each iteration performs the
// full experiment at a reduced scale; custom metrics report the headline
// numbers so `go test -bench` output doubles as a results summary.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/hosting"
	"repro/internal/longitudinal"
	"repro/internal/measure"
	"repro/internal/metatags"
	"repro/internal/netsim"
	"repro/internal/policyd"
	"repro/internal/proxy"
	"repro/internal/robots"
	"repro/internal/scenario"
	"repro/internal/survey"
	"repro/internal/webserver"
)

const benchSeed = 20251028

// benchScale keeps per-iteration corpus work tractable; cmd/somesite runs
// the same pipelines at the paper's full scale.
const benchScale = 0.05

func benchCorpus(b *testing.B) *corpus.Corpus {
	b.Helper()
	c, err := corpus.New(context.Background(), corpus.Config{Seed: benchSeed, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchConfig is the engine configuration for BenchmarkRunAll: every
// registered experiment at bench scale.
func benchConfig() core.Config {
	return core.Config{
		Seed:            benchSeed,
		Scale:           benchScale,
		BlockingSites:   300,
		CloudflareSites: 200,
		Apps:            40,
		Workers:         16,
	}
}

// longitudinalIDs are the experiments the seed's package-global
// longitudinal cache shared one corpus+analysis across; every other
// substrate (blocking surveys, survey population, ablation corpus) was
// rebuilt per experiment in the seed.
var longitudinalIDs = []string{"figure2", "figure3", "figure4", "table3", "table4", "robots-lint"}

// BenchmarkRunAll measures the experiment engine against the seed's
// execution model. The three variants are:
//
//   - seed_path: the seed's sequential loop with the seed's sharing
//     semantics — the six longitudinal-backed experiments share one
//     environment (the seed shared exactly that analysis through a
//     package-global cache), and every other experiment gets a fresh
//     environment, rebuilding its substrates as the seed did (the
//     detector ablation re-runs the full blocking survey, the parser
//     ablation rebuilds its corpus, the survey population regenerates);
//   - sequential: one RunAll with Parallelism 1, so all experiments
//     share all substrates through the Env cache but still run one at
//     a time;
//   - parallel4: the same shared-cache run on a 4-wide worker pool,
//     which additionally overlaps independent experiments when the
//     hardware has cores to spare.
//
// The seed_path/sequential ratio is the win from generalizing the
// seed's single-substrate cache to every substrate, and reproduces on
// any machine; the sequential/parallel4 ratio adds scheduler overlap
// and scales with available cores.
func BenchmarkRunAll(b *testing.B) {
	ctx := context.Background()

	b.Run("seed_path", func(b *testing.B) {
		longitudinal := make(map[string]bool)
		for _, id := range longitudinalIDs {
			longitudinal[id] = true
		}
		for i := 0; i < b.N; i++ {
			// One RunAll = one shared Env for the longitudinal group,
			// mirroring the seed's global longitudinal cache.
			if _, err := core.RunAll(ctx, benchConfig(), core.Options{
				Parallelism: 1,
				IDs:         longitudinalIDs,
				Sink:        core.NewTextSink(io.Discard),
			}); err != nil {
				b.Fatal(err)
			}
			for _, e := range core.Experiments() {
				if longitudinal[e.ID] {
					continue
				}
				// Everything else: a fresh Env per experiment, nothing
				// shared, as in the seed.
				if _, err := core.RunAll(ctx, benchConfig(), core.Options{
					Parallelism: 1,
					IDs:         []string{e.ID},
					Sink:        core.NewTextSink(io.Discard),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	for _, bc := range []struct {
		name        string
		parallelism int
	}{
		{"sequential", 1},
		{"parallel4", 4},
		{"parallel8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := core.RunAll(ctx, benchConfig(), core.Options{
					Parallelism: bc.parallelism,
					Sink:        core.NewTextSink(io.Discard),
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(core.Experiments()) {
					b.Fatalf("ran %d experiments", len(results))
				}
			}
			b.ReportMetric(float64(bc.parallelism), "parallelism")
		})
	}
}

// BenchmarkRunAllSubset measures the engine on the longitudinal-heavy
// subset, where the shared corpus cache does the most work.
func BenchmarkRunAllSubset(b *testing.B) {
	ctx := context.Background()
	ids := longitudinalIDs
	for _, parallelism := range []int{1, 6} {
		b.Run(fmt.Sprintf("parallel%d", parallelism), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunAll(ctx, benchConfig(), core.Options{
					Parallelism: parallelism,
					IDs:         ids,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure2Trend regenerates Figure 2 (full-disallow trends by
// popularity tier) from corpus construction through analysis.
func BenchmarkFigure2Trend(b *testing.B) {
	var last *longitudinal.Result
	for i := 0; i < b.N; i++ {
		c := benchCorpus(b)
		res, err := longitudinal.Analyze(context.Background(), c, 16)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Fig2Top5k.Last().Value, "top5k_end_%")
	b.ReportMetric(last.Fig2Other.Last().Value, "other_end_%")
}

// BenchmarkFigure3PerAgent regenerates Figure 3 (per-agent restriction
// curves); the analysis is shared with Figure 2, so this measures the
// same pipeline and reports the per-agent headline.
func BenchmarkFigure3PerAgent(b *testing.B) {
	var last *longitudinal.Result
	for i := 0; i < b.N; i++ {
		c := benchCorpus(b)
		res, err := longitudinal.Analyze(context.Background(), c, 16)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Fig3["GPTBot"].Last().Value, "gptbot_end_%")
	b.ReportMetric(last.Fig3["CCBot"].Last().Value, "ccbot_end_%")
}

// BenchmarkFigure4AllowRemoval regenerates Figure 4 (explicit allows and
// removal events) and reports the GPTBot-removal total.
func BenchmarkFigure4AllowRemoval(b *testing.B) {
	var last *longitudinal.Result
	for i := 0; i < b.N; i++ {
		c := benchCorpus(b)
		res, err := longitudinal.Analyze(context.Background(), c, 16)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Fig4Allowed.Last().Value, "allowed_end")
	b.ReportMetric(float64(last.GPTBotRemovals), "gptbot_removals")
}

// BenchmarkTable1Respect runs the §5 passive study end to end: two
// instrumented sites, the crawler fleet over real HTTP, and log-based
// classification.
func BenchmarkTable1Respect(b *testing.B) {
	var respected int
	for i := 0; i < b.N; i++ {
		res, err := measure.RunPassive(context.Background(), benchSeed)
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
	b.ReportMetric(float64(respected), "respecting_crawlers")
}

// BenchmarkActiveAssistants runs the §5.2.2 active study: built-in
// assistants plus the GPT-app fleet and crawler deduplication.
func BenchmarkActiveAssistants(b *testing.B) {
	var distinct int
	for i := 0; i < b.N; i++ {
		res, err := measure.RunActive(context.Background(), benchSeed, 60)
		if err != nil {
			b.Fatal(err)
		}
		distinct = res.DistinctCrawlers
	}
	b.ReportMetric(float64(distinct), "distinct_crawlers")
}

// BenchmarkTable2Hosting regenerates Table 2: population generation, DNS
// identification, robots.txt rendering and categorization.
func BenchmarkTable2Hosting(b *testing.B) {
	var sqPct float64
	for i := 0; i < b.N; i++ {
		pop := hosting.GeneratePopulation(0, benchSeed)
		rows := hosting.Table2(pop)
		for _, r := range rows {
			if r.Provider == "Squarespace" {
				sqPct = r.DisallowAIPct
			}
		}
	}
	b.ReportMetric(sqPct, "squarespace_disallow_%")
}

// BenchmarkTable3Snapshots regenerates the snapshot-coverage table.
func BenchmarkTable3Snapshots(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for k := range corpus.Snapshots {
			sites, _ := c.PresenceCounts(k)
			total += sites
		}
	}
	b.ReportMetric(float64(total), "site_observations")
}

// BenchmarkTable4ExplicitAllow measures the explicit-allow extraction.
func BenchmarkTable4ExplicitAllow(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		c := benchCorpus(b)
		res, err := longitudinal.Analyze(context.Background(), c, 16)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Table4)
	}
	b.ReportMetric(float64(rows), "gptbot_allowers")
}

// BenchmarkSurveyTables regenerates Tables 5–8 and the codebook tables.
func BenchmarkSurveyTables(b *testing.B) {
	var top5 int
	for i := 0; i < b.N; i++ {
		pop := survey.Generate(benchSeed)
		pop.Table5()
		pop.Table6()
		t7 := pop.Table7()
		pop.Table8()
		for _, q := range survey.Questions() {
			pop.ThemeCounts(q)
		}
		top5 = 0
		for j := 0; j < 5 && j < len(t7); j++ {
			top5 += t7[j].Count
		}
	}
	b.ReportMetric(float64(top5), "top5_art_selections")
}

// BenchmarkSurveyHeadline regenerates the §4.2–4.3 headline statistics.
func BenchmarkSurveyHeadline(b *testing.B) {
	var pctNever float64
	for i := 0; i < b.N; i++ {
		pop := survey.Generate(benchSeed)
		h := pop.ComputeHeadline()
		pctNever = h.NeverHeardRobotsPct
	}
	b.ReportMetric(pctNever, "never_heard_%")
}

// BenchmarkNoAIMetaScan scans the 10k-homepage population for NoAI tags.
func BenchmarkNoAIMetaScan(b *testing.B) {
	pages := metatags.GenerateHomepages(metatags.PaperTopN,
		metatags.PaperNoAI, metatags.PaperNoImageAI, benchSeed)
	var bytes int64
	for _, p := range pages {
		bytes += int64(len(p))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	var found int
	for i := 0; i < b.N; i++ {
		res := metatags.ScanAll(pages)
		found = res.NoAI
	}
	b.ReportMetric(float64(found), "noai_sites")
}

// BenchmarkActiveBlockingSurvey runs the §6.2 survey: hosting a site
// population and differential-probing every site over real HTTP.
func BenchmarkActiveBlockingSurvey(b *testing.B) {
	var blockers int
	for i := 0; i < b.N; i++ {
		res, err := blocking.RunSurvey(context.Background(), 400, benchSeed, 16, blocking.DefaultDetector)
		if err != nil {
			b.Fatal(err)
		}
		blockers = res.ActiveBlockers
	}
	b.ReportMetric(float64(blockers), "active_blockers")
}

// BenchmarkCloudflareGreyBox replays 614 user agents against a proxied
// site with the Block AI feature off and on (§6.3 rule inference).
func BenchmarkCloudflareGreyBox(b *testing.B) {
	var blocked int
	for i := 0; i < b.N; i++ {
		res, err := proxy.RunGreyBox(benchSeed, 590)
		if err != nil {
			b.Fatal(err)
		}
		blocked = len(res.BlockedTokens)
	}
	b.ReportMetric(float64(blocked), "blocked_tokens")
}

// BenchmarkFigure7Inference classifies a Cloudflare site population with
// the Figure 7 flow.
func BenchmarkFigure7Inference(b *testing.B) {
	var onRate float64
	for i := 0; i < b.N; i++ {
		res, err := proxy.RunInferenceSurvey(context.Background(), 400, benchSeed, 16)
		if err != nil {
			b.Fatal(err)
		}
		onRate = res.OnRate()
	}
	b.ReportMetric(100*onRate, "adoption_%")
}

// BenchmarkRobotsLint measures the §8.1 mistake-rate pass over rendered
// corpus files.
func BenchmarkRobotsLint(b *testing.B) {
	c := benchCorpus(b)
	sites := c.Sites()
	b.ResetTimer()
	var mistakes int
	for i := 0; i < b.N; i++ {
		mistakes = 0
		for _, s := range sites {
			if robots.Lint(c.RobotsBody(s, len(corpus.Snapshots)-1)).Mistakes > 0 {
				mistakes++
			}
		}
	}
	b.ReportMetric(100*float64(mistakes)/float64(len(sites)), "mistake_%")
}

// BenchmarkRobotsParse measures parser throughput on a realistic file.
func BenchmarkRobotsParse(b *testing.B) {
	body := buildLargeRobots()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		rb := robots.ParseString(body)
		if len(rb.Groups) == 0 {
			b.Fatal("parse produced no groups")
		}
	}
}

// BenchmarkRobotsMatch measures access-decision throughput.
func BenchmarkRobotsMatch(b *testing.B) {
	rb := robots.ParseString(buildLargeRobots())
	paths := []string{"/", "/gallery/piece.png", "/blog/2024/post?q=1",
		"/search", "/deep/nested/path/file.php"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Allowed("GPTBot", paths[i%len(paths)])
	}
}

// BenchmarkAblationParserModes parses the same corpus under all four
// parser profiles, quantifying the §8.1 measurement-error finding.
func BenchmarkAblationParserModes(b *testing.B) {
	c := benchCorpus(b)
	profiles := []robots.Profile{
		robots.ProfileGoogle, robots.ProfileStrictRFC,
		robots.ProfileLegacyBuggy, robots.ProfileClassic1994,
	}
	last := len(corpus.Snapshots) - 1
	bodies := make([]string, 0, len(c.Sites()))
	for _, s := range c.Sites() {
		bodies = append(bodies, c.RobotsBody(s, last))
	}
	b.ResetTimer()
	counts := make([]int, len(profiles))
	for i := 0; i < b.N; i++ {
		for pi, p := range profiles {
			pairs := 0
			for _, body := range bodies {
				rb := robots.ParseStringProfile(body, p)
				pairs += table1RestrictionPairs(rb)
			}
			counts[pi] = pairs
		}
	}
	if counts[0] > 0 {
		b.ReportMetric(100*float64(counts[2])/float64(counts[0]), "buggy_vs_google_%")
	}
}

// BenchmarkAblationPrecedence compares longest-match vs first-match rule
// precedence on access decisions.
func BenchmarkAblationPrecedence(b *testing.B) {
	body := buildLargeRobots()
	google := robots.ParseStringProfile(body, robots.ProfileGoogle)
	classic := robots.ParseStringProfile(body, robots.ProfileClassic1994)
	paths := []string{"/shop/public/item", "/gallery/x.png", "/blog/post"}
	var divergent int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paths[i%len(paths)]
		// RandomBot is governed by the wildcard group, where rule order
		// and longest-match semantics actually diverge.
		if google.Allowed("RandomBot", p) != classic.Allowed("RandomBot", p) {
			divergent++
		}
	}
	b.ReportMetric(float64(divergent)/float64(b.N), "divergence_rate")
}

// BenchmarkAblationDetectorFeatures runs the §6.1 survey with the full
// detector and the status-only detector, reporting the undercount.
func BenchmarkAblationDetectorFeatures(b *testing.B) {
	var fullN, statusN int
	for i := 0; i < b.N; i++ {
		full, err := blocking.RunSurvey(context.Background(), 300, benchSeed, 16, blocking.DefaultDetector)
		if err != nil {
			b.Fatal(err)
		}
		statusOnly, err := blocking.RunSurvey(context.Background(), 300, benchSeed, 16, blocking.StatusOnlyDetector)
		if err != nil {
			b.Fatal(err)
		}
		fullN, statusN = full.ActiveBlockers, statusOnly.ActiveBlockers
	}
	if fullN > 0 {
		b.ReportMetric(100*float64(statusN)/float64(fullN), "status_only_recall_%")
	}
}

// BenchmarkAblationCorpusScale runs the longitudinal pipeline at two
// scales to expose its scaling behaviour.
func BenchmarkAblationCorpusScale(b *testing.B) {
	for _, scale := range []struct {
		name  string
		scale float64
	}{{"scale_0.02", 0.02}, {"scale_0.10", 0.10}} {
		b.Run(scale.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := corpus.New(context.Background(), corpus.Config{Seed: benchSeed, Scale: scale.scale})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := longitudinal.Analyze(context.Background(), c, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioEngine runs the observed-world counterfactual
// simulation end to end — per-site discrete-event loops, real HTTP crawl
// waves, log-window analysis — across worker counts. Output is
// bit-identical at every setting; the spread is pure scheduling.
func BenchmarkScenarioEngine(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var visits int
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(context.Background(),
					scenario.Observed(benchSeed, 32, 24), workers)
				if err != nil {
					b.Fatal(err)
				}
				visits = res.TotalVisits
			}
			b.ReportMetric(float64(visits), "crawl_visits")
		})
	}
}

// BenchmarkNetsimHTTP measures substrate round-trip cost: one HTTP
// request over the in-memory network per iteration, with the body
// drained the way every crawler and prober in the codebase does (a
// drained body is what lets the transport pool the connection).
func BenchmarkNetsimHTTP(b *testing.B) {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.240")
	if err != nil {
		b.Fatal(err)
	}
	defer farm.Close()
	site, err := farm.StartSite(webserver.WildcardDisallowSite("bench.test", "203.0.113.200"))
	if err != nil {
		b.Fatal(err)
	}
	client := nw.HTTPClient("198.51.100.250")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(site.URL() + "/robots.txt")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkFarmSiteStartup measures the cost of standing up (and
// tearing down) one survey site — the operation the blocking/proxy
// surveys repeat thousands of times per run: a map insert plus an IP
// alias on the farm's shared listener.
func BenchmarkFarmSiteStartup(b *testing.B) {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.240")
	if err != nil {
		b.Fatal(err)
	}
	defer farm.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site, err := farm.StartSite(webserver.Config{
			Domain: "startup.test", IP: "203.0.113.203",
			Pages: webserver.ContentPages("startup.test"),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := site.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrawlerSiteCrawl measures one full compliant crawl of the
// measurement site.
func BenchmarkCrawlerSiteCrawl(b *testing.B) {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.240")
	if err != nil {
		b.Fatal(err)
	}
	defer farm.Close()
	site, err := farm.StartSite(webserver.Config{
		Domain: "crawlbench.test", IP: "203.0.113.201",
		Pages: webserver.ContentPages("crawlbench.test"),
	})
	if err != nil {
		b.Fatal(err)
	}
	cr, err := crawler.New(nw, crawler.Profile{
		Token: "GPTBot", SourceIP: "24.0.1.99", Behavior: crawler.Compliant,
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
}

// table1RestrictionPairs counts (site, agent) explicit restrictions for
// all Table 1 agents — the ablation metric where buggy parsers lose the
// grouped User-agent lines they dropped.
func table1RestrictionPairs(rb *robots.Robots) int {
	pairs := 0
	for _, a := range agents.Table1 {
		if lvl, explicit := rb.ExplicitRestriction(a.UserAgent); explicit && lvl.Restricted() {
			pairs++
		}
	}
	return pairs
}

// buildLargeRobots renders a realistic robots.txt with many groups.
func buildLargeRobots() string {
	bld := robots.NewBuilder()
	bld.Comment("benchmark file")
	bld.Group("*").Disallow("/admin/", "/search", "/shop").Allow("/shop/public")
	bld.Group(agents.SquarespaceBlockedAgents...).DisallowAll()
	for _, a := range agents.Table1 {
		bld.Group(a.UserAgent).Disallow("/images/", "/gallery/")
	}
	var extra []string
	for i := 0; i < 20; i++ {
		extra = append(extra, "/generated/path"+strings.Repeat("x", i)+"/")
	}
	bld.Group("Googlebot").Disallow(extra...)
	bld.Sitemap("https://bench.example/sitemap.xml")
	return bld.String()
}

// benchPolicySnapshot compiles the bench corpus's final month into a
// policyd serving index.
func benchPolicySnapshot(b *testing.B) *policyd.Snapshot {
	b.Helper()
	snap, err := policyd.FromCorpus(context.Background(), benchCorpus(b), len(corpus.Snapshots)-1, 16)
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// benchPolicyQueries is a fixed query mix over snapshot hosts.
func benchPolicyQueries(snap *policyd.Snapshot) []policyd.Query {
	hosts := snap.Hosts()
	mix := []string{"GPTBot", "ClaudeBot", "CCBot", "Bytespider", "Googlebot"}
	paths := []string{"/", "/about.html", "/images/art.png", "/admin/panel", "/gallery/p.jpg"}
	qs := make([]policyd.Query, 4096)
	for i := range qs {
		qs[i] = policyd.Query{
			Host:  hosts[(i*31)%len(hosts)],
			Agent: mix[i%len(mix)],
			Path:  paths[(i/len(mix))%len(paths)],
		}
	}
	return qs
}

// BenchmarkPolicydDecide measures the single-decision hot path: host
// and agent in the compiled index, zero allocations per op.
func BenchmarkPolicydDecide(b *testing.B) {
	snap := benchPolicySnapshot(b)
	svc := policyd.NewService(snap)
	qs := benchPolicyQueries(snap)
	for _, q := range qs {
		svc.Decide(q) // warm
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Decide(qs[i%len(qs)])
	}
}

// BenchmarkPolicydDecideBatch measures the batched path with a reused
// output buffer, the shape cmd/loadgen and the batch API drive.
func BenchmarkPolicydDecideBatch(b *testing.B) {
	snap := benchPolicySnapshot(b)
	svc := policyd.NewService(snap)
	qs := benchPolicyQueries(snap)[:64]
	out := make([]policyd.Decision, 0, len(qs))
	out = svc.DecideBatch(qs, out[:0]) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = svc.DecideBatch(qs, out[:0])
	}
	b.ReportMetric(float64(len(qs)), "decisions/op")
}

// BenchmarkPolicydCompile measures snapshot compilation — the hot-
// reload cost when a corpus month advances.
func BenchmarkPolicydCompile(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	var hosts int
	for i := 0; i < b.N; i++ {
		snap, err := policyd.FromCorpus(context.Background(), c, len(corpus.Snapshots)-1, 16)
		if err != nil {
			b.Fatal(err)
		}
		hosts = snap.Len()
	}
	b.ReportMetric(float64(hosts), "hosts")
}

// BenchmarkPolicydHTTP measures one decision through the JSON API over
// netsim — the in-harness serving cost including transport framing.
func BenchmarkPolicydHTTP(b *testing.B) {
	snap := benchPolicySnapshot(b)
	svc := policyd.NewService(snap)
	nw := netsim.New()
	ln, err := nw.Listen("203.0.113.220", 80)
	if err != nil {
		b.Fatal(err)
	}
	nw.Register("policyd-bench.test", "203.0.113.220")
	srv := &http.Server{Handler: policyd.NewHandler(svc)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	client := nw.HTTPClient("198.51.100.220")
	hosts := snap.Hosts()
	url := "http://policyd-bench.test/v1/decide?agent=GPTBot&path=/about.html&host="
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url + hosts[i%len(hosts)])
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkPolicydFrameBatch serves 64-query batches over the binary
// frame protocol on netsim — the wire the load generator uses with
// -wire binary. Compare against BenchmarkPolicydHTTP (JSON, one query
// per request) for the framing + batching win.
func BenchmarkPolicydFrameBatch(b *testing.B) {
	snap := benchPolicySnapshot(b)
	svc := policyd.NewService(snap)
	nw := netsim.New()
	ln, err := nw.Listen("203.0.113.221", 80)
	if err != nil {
		b.Fatal(err)
	}
	go policyd.ServeFrames(ln, svc)
	defer ln.Close()
	conn, err := nw.Dial(context.Background(), "198.51.100.221", "203.0.113.221:80")
	if err != nil {
		b.Fatal(err)
	}
	fc, err := policyd.NewFrameClient(conn)
	if err != nil {
		b.Fatal(err)
	}
	defer fc.Close()
	hosts := snap.Hosts()
	qs := make([]policyd.Query, 64)
	for i := range qs {
		qs[i] = policyd.Query{Host: hosts[(i*31)%len(hosts)], Agent: "GPTBot", Path: "/about.html"}
	}
	out := make([]policyd.Decision, 0, len(qs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = fc.Decide(qs, out[:0])
		if err != nil || len(out) != len(qs) {
			b.Fatalf("frame batch: %d decisions, err %v", len(out), err)
		}
	}
	b.ReportMetric(float64(len(qs)), "queries_per_op")
}
