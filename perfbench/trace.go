package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/longitudinal"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/policyd"
	"repro/internal/robots"
	"repro/internal/scenario"
	"repro/internal/webserver"
)

// The traced run. It times calls into each layer's public functions in
// isolation (the rungs), drives every workload for a short traced
// segment to get the end-to-end number each ladder ends in, and for the
// chosen workload also runs an untraced segment to report what span
// recording costs. Every per-layer metric is reported on every workload;
// the go.* and trace.* metrics come from the chosen workload's segment.

// rungTarget is how long one timed batch of a rung runs; rungBatches is
// how many batches a rung's median is taken over.
const (
	rungTarget  = 40 * time.Millisecond
	rungBatches = 5
)

// perOp calibrates n so that fn(n) takes about rungTarget, then returns
// the median time per operation over rungBatches batches and the heap
// allocations per operation over all of them, rounded to a whole count.
func perOp(fn func(n int)) (time.Duration, float64) {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= rungTarget/4 || n >= 1<<30 {
			n = int(float64(n) * float64(rungTarget) / float64(d+1))
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	var m0, m1 runtime.MemStats
	times := make([]float64, rungBatches)
	runtime.ReadMemStats(&m0)
	for i := range times {
		t0 := time.Now()
		fn(n)
		times[i] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	allocs := math.Round(float64(m1.Mallocs-m0.Mallocs) / float64(n*rungBatches))
	return time.Duration(median(times)), allocs
}

// atProcs runs fn with GOMAXPROCS set to p.
func atProcs(p int, fn func()) {
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// rung is one ladder row: a layer's cost in the ladder's unit.
type rung struct {
	name string
	cost float64
}

// printLadder prints each rung's cost, its delta from the rung before,
// and the residual of the end-to-end number over the last rung, and
// returns that residual.
func printLadder(w io.Writer, title, unit string, rungs []rung, e2eName string, e2e float64) float64 {
	fmt.Fprintf(w, "# ladder %s (%s)\n", title, unit)
	prev := 0.0
	for i, r := range rungs {
		delta := "-"
		if i > 0 {
			delta = fmt.Sprintf("%+.3f", r.cost-prev)
		}
		fmt.Fprintf(w, "#   %-40s %12.3f  delta %12s\n", r.name, r.cost, delta)
		prev = r.cost
	}
	residual := e2e - prev
	fmt.Fprintf(w, "#   %-40s %12.3f  residual %+.3f (%.1f%% of end-to-end)\n",
		e2eName, e2e, residual, 100*residual/e2e)
	return residual
}

func runTraced(ctx context.Context, o *options) (*result, error) {
	rec := newSpanRecorder()
	res := &result{}
	seg := time.Duration(o.seconds * float64(time.Second) / 5)
	if seg < time.Second {
		seg = time.Second
	}
	// fleet_frames' segment must hold at least two rollovers.
	frameSeg := seg
	if least := 2*o.sizes.rollEvery + o.sizes.rollEvery/2; frameSeg < least {
		frameSeg = least
	}

	env, err := setupFleet(ctx, o, fleetMonths(o, frameSeg))
	if err != nil {
		return nil, err
	}
	defer env.close()

	// Chosen-workload segments: untraced, then traced.
	var untracedOps, tracedOps, opsCount float64
	var rt0, rt1 runtimeCounters
	account := func(attempted, failed int64) {
		res.Attempted += attempted
		res.Failed += failed
	}

	frames, err := tracedFleetSegment(ctx, o, env, "frame", frameSeg, rec, &untracedOps, account)
	if err != nil {
		return nil, err
	}
	jsonLS, err := tracedFleetSegment(ctx, o, env, "json", seg, rec, &untracedOps, account)
	if err != nil {
		return nil, err
	}
	switch o.workload {
	case "fleet_frames":
		tracedOps, opsCount = float64(frames.decisions)/frames.elapsed.Seconds(), float64(frames.decisions)
		rt0, rt1 = frames.rt0, frames.rt1
	case "fleet_json":
		tracedOps, opsCount = float64(jsonLS.decisions)/jsonLS.elapsed.Seconds(), float64(jsonLS.decisions)
		rt0, rt1 = jsonLS.rt0, jsonLS.rt1
	}

	if err := servingRungs(ctx, o, env, frames, jsonLS, res); err != nil {
		return nil, err
	}

	// scenario_tiered segment.
	spec, err := setupScenario(ctx, o)
	if err != nil {
		return nil, err
	}
	reps := 1
	if o.workload == "scenario_tiered" {
		reps = 2
		un, _, err := scenarioReps(ctx, o, spec, nil, 0, reps)
		if err != nil {
			return nil, err
		}
		account(un.attempted, un.failed)
		untracedOps = un.ops / medianDur(un.wall).Seconds()
	}
	srs, _, err := scenarioReps(ctx, o, spec, rec, 0, reps)
	if err != nil {
		return nil, err
	}
	account(srs.attempted, srs.failed)
	if o.workload == "scenario_tiered" {
		tracedOps, opsCount = srs.ops/medianDur(srs.wall).Seconds(), srs.ops*float64(len(srs.wall))
		rt0, rt1 = srs.rt0, srs.rt1
	}
	if err := simulationRungs(ctx, o, env, srs, res); err != nil {
		return nil, err
	}
	full, err := coreScenarioRuns(ctx, o)
	if err != nil {
		return nil, err
	}
	res.set("scenario.full_run_ms", ms(full), "ms")

	// paper_repro segment.
	if o.workload == "paper_repro" {
		un, _, err := reproReps(ctx, o, nil, 0, reps)
		if err != nil {
			return nil, err
		}
		account(un.attempted, un.failed)
		untracedOps = 1 / medianDur(un.wall).Seconds()
	}
	prs, _, err := reproReps(ctx, o, rec, 0, reps)
	if err != nil {
		return nil, err
	}
	account(prs.attempted, prs.failed)
	if o.workload == "paper_repro" {
		tracedOps, opsCount = 1/medianDur(prs.wall).Seconds(), float64(len(prs.wall))
		rt0, rt1 = prs.rt0, prs.rt1
	}
	if err := paperRungs(ctx, o, prs, full, res); err != nil {
		return nil, err
	}

	res.set("go.gc_cpu_frac", gcFrac(rt0, rt1), "frac")
	res.set("go.alloc_bytes_per_op", (rt1.allocBytes-rt0.allocBytes)/opsCount, "B")
	res.set("trace.ops_per_s", tracedOps, "1/s")
	res.set("trace.overhead_frac", (untracedOps-tracedOps)/untracedOps, "frac")
	fmt.Fprintf(o.log, "# tracing overhead on %s: %.4g/s untraced vs %.4g/s traced (%+.2f%%)\n",
		o.workload, untracedOps, tracedOps, 100*(untracedOps-tracedOps)/untracedOps)

	name := fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed)
	if err := rec.writeFile(o.traceDir, name); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(o.log, "# %d spans written to %s/%s\n", len(rec.spans), o.traceDir, name)
	return res, nil
}

// tracedFleetSegment drives the fleet on one wire for dur with spans
// recorded. When that wire is the chosen workload's, an untraced drive
// of the same length runs first and its throughput is stored in
// *untraced.
func tracedFleetSegment(ctx context.Context, o *options, env *fleetEnv, wire string, dur time.Duration,
	rec *spanRecorder, untraced *float64, account func(a, f int64)) (*loadStats, error) {
	roll := wire == "frame"
	chosen := (wire == "frame" && o.workload == "fleet_frames") || (wire == "json" && o.workload == "fleet_json")
	if chosen {
		ls, err := env.drive(ctx, wire, dur, roll, nil)
		if err != nil {
			return nil, err
		}
		account(ls.attempted, ls.failed)
		*untraced = float64(ls.decisions) / ls.elapsed.Seconds()
		if err := env.reset(); err != nil {
			return nil, err
		}
	}
	ls, err := env.drive(ctx, wire, dur, roll, rec)
	if err != nil {
		return nil, err
	}
	account(ls.attempted, ls.failed)
	if err := env.reset(); err != nil {
		return nil, err
	}
	return ls, nil
}

// meanCall is the mean call latency of a drive.
func meanCall(ls *loadStats) time.Duration {
	return ls.latSum / time.Duration(ls.calls)
}

// discardWriter is an in-memory http.ResponseWriter that keeps only the
// status and the body length.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// servingRungs measures the policyd/netsim/fleet rungs and prints the
// two serving ladders.
func servingRungs(ctx context.Context, o *options, env *fleetEnv, frames, jsonLS *loadStats, res *result) error {
	snap := env.first
	pool := env.pool
	mask := len(pool) - 1 // pool size is a power of two
	bs := o.sizes.batch
	nb := len(pool) / bs

	decide, decideAllocs := perOp(func(n int) {
		for i := 0; i < n; i++ {
			snap.Decide(pool[i&mask])
		}
	})
	svc := policyd.NewService(snap)
	out := make([]policyd.Decision, 0, bs)
	batch, _ := perOp(func(n int) {
		for i := 0; i < n; i++ {
			k := i % nb
			out, _ = svc.DecideBatchVersioned(pool[k*bs:(k+1)*bs], out[:0])
		}
	})
	batchPerDecision := batch / time.Duration(bs)

	var qbuf, rbuf []byte
	qs := make([]policyd.Query, 0, bs)
	ds := make([]policyd.Decision, 0, bs)
	var codecErr error
	codec, codecAllocs := perOp(func(n int) {
		for i := 0; i < n; i++ {
			k := i % nb
			var err error
			if qbuf, err = policyd.AppendQueryFrame(qbuf[:0], pool[k*bs:(k+1)*bs]); err != nil {
				codecErr = err
				return
			}
			if qs, err = policyd.DecodeQueryPayload(qbuf[4:], qs[:0]); err != nil {
				codecErr = err
				return
			}
			rbuf = policyd.AppendDecisionFrameV2(rbuf[:0], out, snap.Version)
			if ds, _, err = policyd.DecodeResponsePayloadV2(rbuf[4:], ds[:0]); err != nil {
				codecErr = err
				return
			}
		}
	})
	if codecErr != nil {
		return fmt.Errorf("frame codec rung: %w", codecErr)
	}

	handler := policyd.NewHandler(svc)
	reqs := make([]*http.Request, 1024)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "http://policyd"+env.urls[i], nil)
	}
	w := &discardWriter{h: http.Header{}}
	jsonHandler, jsonAllocs := perOp(func(n int) {
		for i := 0; i < n; i++ {
			w.status, w.n = 0, 0
			handler.ServeHTTP(w, reqs[i&1023])
		}
	})
	if w.n == 0 || (w.status != 0 && w.status != http.StatusOK) {
		return fmt.Errorf("json handler rung: status %d, %d bytes", w.status, w.n)
	}

	// Frame calls over netsim: direct to one replica, then through the
	// gateway, unloaded (one client, no rollover).
	frameCall := func(addr string, size int) (time.Duration, error) {
		fc, err := env.fleet.DialFrameV2(ctx, addr)
		if err != nil {
			return 0, err
		}
		defer fc.Close()
		var callErr error
		d, _ := perOp(func(n int) {
			for i := 0; i < n && callErr == nil; i++ {
				k := (i % nb) * bs
				out, _, callErr = fc.Decide(pool[k:k+size], out[:0])
			}
		})
		return d, callErr
	}
	rtt := map[int]time.Duration{}
	for _, p := range []int{1, 2, o.procs} {
		if _, done := rtt[p]; done {
			continue
		}
		var err error
		atProcs(p, func() { rtt[p], err = frameCall(env.fleet.ReplicaFrameAddrs[0], bs) })
		if err != nil {
			return fmt.Errorf("replica frame rung: %w", err)
		}
	}
	c0, b0 := env.replicaCallCount(), env.fleet.GW.Stats().Batches
	gwFrame, err := frameCall(env.fleet.GatewayFrameAddr, bs)
	if err != nil {
		return fmt.Errorf("gateway frame rung: %w", err)
	}
	unloadedCalls := float64(env.replicaCallCount()-c0) / float64(env.fleet.GW.Stats().Batches-b0)
	sub := int(math.Round(float64(bs) / unloadedCalls))
	subCall, err := frameCall(env.fleet.ReplicaFrameAddrs[0], sub)
	if err != nil {
		return fmt.Errorf("replica sub-batch rung: %w", err)
	}
	transport := func(call time.Duration) float64 { return us(call - codec - batch) }

	getCall := func(base string) (time.Duration, error) {
		hc := env.fleet.Client()
		defer hc.CloseIdleConnections()
		var callErr error
		d, _ := perOp(func(n int) {
			for i := 0; i < n && callErr == nil; i++ {
				resp, err := hc.Get(base + env.urls[i&mask])
				if err != nil {
					callErr = err
					return
				}
				_, callErr = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					callErr = fmt.Errorf("status %s", resp.Status)
				}
			}
		})
		return d, callErr
	}
	replicaGet, err := getCall(env.fleet.ReplicaURLs[0])
	if err != nil {
		return fmt.Errorf("replica GET rung: %w", err)
	}
	gatewayGet, err := getCall(env.fleet.GatewayURL)
	if err != nil {
		return fmt.Errorf("gateway GET rung: %w", err)
	}

	// Compile: incremental month advances, uncontended.
	var compiles []float64
	prev := snap
	reusedFrac := 0.0
	for m := 1; m <= 4 && m < len(corpus.Snapshots); m++ {
		t0 := time.Now()
		next, err := policyd.FromCorpusIncremental(ctx, env.corpus, m, 1, prev)
		if err != nil {
			return fmt.Errorf("compile rung: %w", err)
		}
		compiles = append(compiles, ms(time.Since(t0)))
		if m == 1 {
			reusedFrac = float64(next.ReusedHosts()) / float64(next.Len())
		}
		prev = next
	}

	callsPerBatch := float64(frames.replicaCalls) / float64(frames.batches)
	converge := make([]float64, len(frames.converge))
	for i, d := range frames.converge {
		converge[i] = ms(d)
	}

	res.set("policyd.decide_ns", float64(decide), "ns")
	res.set("policyd.decide_allocs", decideAllocs, "count")
	res.set("policyd.batch_ns_per_decision", float64(batchPerDecision), "ns")
	res.set("policyd.frame_codec_ns", float64(codec), "ns")
	res.set("policyd.frame_codec_allocs", codecAllocs, "count")
	res.set("policyd.json_handler_us", us(jsonHandler), "us")
	res.set("policyd.json_handler_allocs", jsonAllocs, "count")
	res.set("policyd.compile_ms", median(compiles), "ms")
	res.set("policyd.hosts_reused_frac", reusedFrac, "frac")
	res.set("netsim.frame_rtt_us", transport(rtt[o.procs]), "us")
	res.set("netsim.frame_rtt_us.gmp1", transport(rtt[1]), "us")
	res.set("netsim.frame_rtt_us.gmp2", transport(rtt[2]), "us")
	res.set("netsim.http_get_us", us(replicaGet-jsonHandler), "us")
	res.set("fleet.gateway_frame_self_us", us(gwFrame)-unloadedCalls*us(subCall), "us")
	res.set("fleet.gateway_json_self_us", us(gatewayGet-replicaGet), "us")
	res.set("fleet.replica_calls_per_batch", callsPerBatch, "count")
	res.set("fleet.repinned_frac", float64(frames.repinned)/float64(frames.batches), "frac")
	res.set("fleet.converge_ms", median(converge), "ms")

	fb := float64(bs)
	frameE2E := us(meanCall(frames))
	res.set("ladder.frames.residual_us", printLadder(o.log, "serving, frames", "us per 64-query call", []rung{
		{"policyd.decide x64", fb * us(decide)},
		{"policyd.DecideBatchVersioned(64)", us(batch)},
		{"+ frame codec", us(batch + codec)},
		{"FrameClientV2 -> replica (netsim)", us(rtt[o.procs])},
		{"FrameClientV2 -> gateway, unloaded", us(gwFrame)},
	}, "fleet_frames mean call (loaded, rollovers)", frameE2E), "us")
	jsonE2E := us(meanCall(jsonLS))
	res.set("ladder.json.residual_us", printLadder(o.log, "serving, JSON", "us per request", []rung{
		{"policyd.decide", us(decide)},
		{"policyd handler ServeHTTP", us(jsonHandler)},
		{"GET -> replica (netsim)", us(replicaGet)},
		{"GET -> gateway", us(gatewayGet)},
	}, "fleet_json mean call (loaded)", jsonE2E), "us")
	fmt.Fprintf(o.log, "# fleet: %.2f replica calls per batch loaded (%.2f unloaded, sub-batch %d = %.2fus); "+
		"%d rollovers, converge %v ms, repinned %d of %d batches\n",
		callsPerBatch, unloadedCalls, sub, us(subCall), frames.rollovers, converge, frames.repinned, frames.batches)
	return nil
}

// simulationRungs measures the farm/crawler/robots/scenario rungs and
// prints the hot site-month ladder.
func simulationRungs(ctx context.Context, o *options, env *fleetEnv, srs *repStats, res *result) error {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.240")
	if err != nil {
		return err
	}
	defer farm.Close()
	site, err := farm.StartSite(webserver.WildcardDisallowSite("bench.test", "203.0.113.200"))
	if err != nil {
		return err
	}
	farmGet := func() (time.Duration, error) {
		client := nw.HTTPClient("198.51.100.250")
		defer client.CloseIdleConnections()
		var getErr error
		d, _ := perOp(func(n int) {
			for i := 0; i < n && getErr == nil; i++ {
				resp, err := client.Get(site.URL() + "/robots.txt")
				if err != nil {
					getErr = err
					return
				}
				_, getErr = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
		return d, getErr
	}
	gets := map[int]time.Duration{}
	for _, p := range []int{1, 2, o.procs} {
		if _, done := gets[p]; done {
			continue
		}
		atProcs(p, func() { gets[p], err = farmGet() })
		if err != nil {
			return fmt.Errorf("farm GET rung: %w", err)
		}
	}

	content, err := farm.StartSite(webserver.Config{
		Domain: "crawlbench.test", IP: "203.0.113.201",
		Pages: webserver.ContentPages("crawlbench.test"),
	})
	if err != nil {
		return err
	}
	cr, err := crawler.New(nw, crawler.Profile{Token: "GPTBot", SourceIP: "24.0.1.99", Behavior: crawler.Compliant})
	if err != nil {
		return err
	}
	var crawlErr error
	crawl, _ := perOp(func(n int) {
		for i := 0; i < n && crawlErr == nil; i++ {
			_, crawlErr = cr.Crawl(ctx, content.URL())
		}
	})
	if crawlErr != nil {
		return fmt.Errorf("crawl rung: %w", crawlErr)
	}
	pages := webserver.ContentPages("startup.test")
	var startErr error
	startup, _ := perOp(func(n int) {
		for i := 0; i < n && startErr == nil; i++ {
			s, err := farm.StartSite(webserver.Config{Domain: "startup.test", IP: "203.0.113.203", Pages: pages})
			if err != nil {
				startErr = err
				return
			}
			startErr = s.Close()
		}
	})
	if startErr != nil {
		return fmt.Errorf("site startup rung: %w", startErr)
	}

	// robots.txt bodies as the fleet corpus renders them at its last
	// snapshot.
	last := len(corpus.Snapshots) - 1
	var bodies []string
	for _, s := range env.corpus.Sites() {
		if b := env.corpus.RobotsBody(s, last); b != "" {
			bodies = append(bodies, b)
		}
	}
	if len(bodies) == 0 {
		return fmt.Errorf("robots rung: corpus rendered no robots.txt bodies")
	}
	parse, _ := perOp(func(n int) {
		for i := 0; i < n; i++ {
			robots.ParseString(bodies[i%len(bodies)])
		}
	})
	parsed := make([]*robots.Robots, len(bodies))
	for i, b := range bodies {
		parsed[i] = robots.ParseString(b)
	}
	match, _ := perOp(func(n int) {
		for i := 0; i < n; i++ {
			parsed[i%len(parsed)].Allowed(fleetAgents[i%len(fleetAgents)], fleetPaths[i%len(fleetPaths)])
		}
	})

	// One hot site-month: every site of a small slice of the world hot.
	hotSites := 64
	if hotSites > o.sizes.scenarioSites {
		hotSites = o.sizes.scenarioSites
	}
	slice := scenarioSpec(o, hotSites)
	var hotTimes []float64
	var hotVisits int
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		r, err := scenario.RunTiered(ctx, slice, scenario.TierOptions{HotSites: hotSites, Workers: o.procs})
		if err != nil {
			return fmt.Errorf("hot site-month rung: %w", err)
		}
		hotTimes = append(hotTimes, float64(time.Since(t0))/float64(hotSites*slice.Months))
		hotVisits = r.TotalVisits
	}
	hot := time.Duration(median(hotTimes))
	ts := srs.lastStats
	wall := medianDur(srs.wall)
	cold := float64(wall-time.Duration(ts.HotSiteMonths)*hot) / float64(ts.ColdSiteMonths)

	res.set("netsim.farm_get_us", us(gets[o.procs]), "us")
	res.set("netsim.farm_get_us.gmp1", us(gets[1]), "us")
	res.set("netsim.farm_get_us.gmp2", us(gets[2]), "us")
	res.set("crawler.site_crawl_us", us(crawl), "us")
	res.set("webserver.site_startup_us", us(startup), "us")
	res.set("robots.parse_us", us(parse), "us")
	res.set("robots.match_ns", float64(match), "ns")
	res.set("scenario.hot_site_month_us", us(hot), "us")
	res.set("scenario.cold_site_month_ns", cold, "ns")
	sm := ts.HotSiteMonths + ts.ColdSiteMonths
	res.set("scenario.hot_site_month_frac", float64(ts.HotSiteMonths)/float64(sm), "frac")
	res.set("scenario.wave_classes", float64(ts.WaveClasses), "count")
	res.set("scenario.waves_total", float64(ts.CompiledWaves+ts.ReplayedWaves), "count")
	res.set("scenario.columnar_bytes_per_site", ts.BytesPerSite(o.sizes.scenarioSites), "B")
	res.set("scenario.promotions", float64(ts.Promotions), "count")

	visitsPerSM := float64(hotVisits) / float64(hotSites*slice.Months)
	res.set("ladder.hot_site_month.residual_us", printLadder(o.log, "simulation, one hot site-month", "us per site-month", []rung{
		{"webserver Farm.StartSite + Close", us(startup)},
		{fmt.Sprintf("+ %.2f crawler.Crawl visits", visitsPerSM), us(startup) + visitsPerSM*us(crawl)},
	}, "scenario.RunTiered, all sites hot", us(hot)), "us")
	fmt.Fprintf(o.log, "# scenario_tiered run %v = %d hot x %.1fus + %d cold x %.1fns; "+
		"robots.match %.0fns, robots.parse %.2fus, farm GET %.2fus (gmp1 %.2fus, gmp2 %.2fus)\n",
		fmtDur(wall), ts.HotSiteMonths, us(hot), ts.ColdSiteMonths, cold,
		float64(match), us(parse), us(gets[o.procs]), us(gets[1]), us(gets[2]))
	return nil
}

// coreScenarioRuns times scenario.Run on the specs the core scenario
// experiments declare at the paper_repro configuration, summed.
func coreScenarioRuns(ctx context.Context, o *options) (time.Duration, error) {
	cfg := reproConfig(o, o.procs)
	sites := int(400*cfg.Scale + 0.5)
	if sites < 24 {
		sites = 24
	}
	const months = 24
	control := scenario.RogueCrawler(cfg.Seed, sites, months)
	control.Name = "rogue-control"
	control.Crawlers = control.Crawlers[:len(control.Crawlers)-1]
	specs := []scenario.Spec{
		scenario.Baseline(cfg.Seed),
		scenario.Observed(cfg.Seed, sites, months),
		scenario.HighAdoption(cfg.Seed, sites, months, 4),
		scenario.RogueCrawler(cfg.Seed, sites, months),
		control,
	}
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1} {
		specs = append(specs, scenario.ManagedUptake(cfg.Seed, sites, months, u))
	}
	var total time.Duration
	for _, sp := range specs {
		t0 := time.Now()
		if _, err := scenario.Run(ctx, sp, cfg.Workers); err != nil {
			return 0, fmt.Errorf("scenario.Run %s: %w", sp.Name, err)
		}
		total += time.Since(t0)
	}
	return total, nil
}

// paperRungs times the substrate studies the reproduction is built from
// at its configuration, and prints the paper ladder.
func paperRungs(ctx context.Context, o *options, prs *repStats, full time.Duration, res *result) error {
	cfg := reproConfig(o, o.procs)
	t0 := time.Now()
	c, err := corpus.New(ctx, corpus.Config{Seed: cfg.Seed, Scale: cfg.Scale, Workers: cfg.Workers})
	if err != nil {
		return fmt.Errorf("corpus rung: %w", err)
	}
	build := time.Since(t0)
	t0 = time.Now()
	if _, err := longitudinal.Analyze(ctx, c, cfg.Workers); err != nil {
		return fmt.Errorf("longitudinal rung: %w", err)
	}
	analyze := time.Since(t0)
	t0 = time.Now()
	if _, err := measure.RunPassive(ctx, cfg.Seed); err != nil {
		return fmt.Errorf("passive rung: %w", err)
	}
	passive := time.Since(t0)
	t0 = time.Now()
	if _, err := measure.RunActive(ctx, cfg.Seed, cfg.Apps); err != nil {
		return fmt.Errorf("active rung: %w", err)
	}
	active := time.Since(t0)
	t0 = time.Now()
	if _, err := blocking.RunSurvey(ctx, cfg.BlockingSites, cfg.Seed, cfg.Workers, blocking.DefaultDetector); err != nil {
		return fmt.Errorf("survey rung: %w", err)
	}
	survey := time.Since(t0)

	res.set("corpus.build_ms", ms(build), "ms")
	res.set("longitudinal.analyze_ms", ms(analyze), "ms")
	res.set("measure.passive_ms", ms(passive), "ms")
	res.set("measure.active_ms", ms(active), "ms")
	res.set("blocking.survey_ms", ms(survey), "ms")
	wall := ms(medianDur(prs.wall))
	var rungs []rung
	sum := 0.0
	for _, r := range []rung{
		{"corpus.New", ms(build)},
		{"+ longitudinal.Analyze", ms(analyze)},
		{"+ measure.RunPassive", ms(passive)},
		{"+ measure.RunActive", ms(active)},
		{"+ blocking.RunSurvey", ms(survey)},
		{"+ scenario.Run (core specs)", ms(full)},
	} {
		sum += r.cost
		rungs = append(rungs, rung{r.name, sum})
	}
	res.set("core.residual_ms", printLadder(o.log, "paper reproduction", "ms per reproduction", rungs,
		"core.RunAll, all experiments", wall), "ms")
	return nil
}
