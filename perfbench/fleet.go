package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/policyd"
)

// fleetAgents and fleetPaths are cmd/loadgen's default agent mix and its
// representative path set.
var (
	fleetAgents = []string{"GPTBot", "ClaudeBot", "CCBot", "Bytespider", "Googlebot"}
	fleetPaths  = []string{
		"/", "/about.html", "/admin/panel", "/images/art.png",
		"/gallery/2024/piece.jpg", "/blog/post?id=7", "/search?q=x",
	}
)

// fleetEnv is a booted fleet plus the inputs and expected answers for
// driving it.
type fleetEnv struct {
	o      *options
	corpus *corpus.Corpus
	fleet  *fleet.SimFleet
	// first is the reference snapshot of the first corpus month, which
	// the fleet boots on; months is how many corpus months a run uses.
	first  *policyd.Snapshot
	months int
	// want holds every pool query's expected decision per snapshot
	// version, precomputed with Snapshot.Decide on reference snapshots
	// compiled from scratch by policyd.FromCorpus, one per month.
	want map[string][]policyd.Decision
	pool []policyd.Query
	urls []string // gateway /v1/decide URL per pool query
}

// buildPool draws the query pool: zipf-1.1 hosts in corpus order (top
// sites first), uniform agents and paths.
func buildPool(seed int64, hosts []string, n int) []policyd.Query {
	rn := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rn, 1.1, 1, uint64(len(hosts)-1))
	qs := make([]policyd.Query, n)
	for i := range qs {
		qs[i] = policyd.Query{
			Host:  hosts[zipf.Uint64()],
			Agent: fleetAgents[rn.Intn(len(fleetAgents))],
			Path:  fleetPaths[rn.Intn(len(fleetPaths))],
		}
	}
	return qs
}

// setupFleet builds the corpus, compiles nMonths reference snapshots,
// boots the fleet on the first, precomputes the expected decisions and
// warms every client path.
func setupFleet(ctx context.Context, o *options, nMonths int) (*fleetEnv, error) {
	sz := o.sizes
	c, err := corpus.New(ctx, corpus.Config{Seed: fleetCorpusSeed, Scale: sz.corpusScale})
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	env := &fleetEnv{o: o, corpus: c, want: map[string][]policyd.Decision{}}
	hosts := make([]string, len(c.Sites()))
	for i, s := range c.Sites() {
		hosts[i] = s.Domain
	}
	env.pool = buildPool(o.seed, hosts, sz.poolQueries)
	if nMonths > len(corpus.Snapshots) {
		nMonths = len(corpus.Snapshots)
	}
	for m := 0; m < nMonths; m++ {
		snap, err := policyd.FromCorpus(ctx, c, m, 0)
		if err != nil {
			return nil, fmt.Errorf("compile month %d: %w", m, err)
		}
		if m == 0 {
			env.first = snap
		}
		env.months++
		want := make([]policyd.Decision, len(env.pool))
		for i, q := range env.pool {
			want[i] = snap.Decide(q)
		}
		env.want[snap.Version] = want
	}
	if o.inject {
		// A deliberately wrong expectation: the checks must count it.
		w := env.want[env.first.Version]
		w[0].Action = (w[0].Action + 1) % (policyd.Block + 1)
	}
	env.urls = make([]string, len(env.pool))
	for i, q := range env.pool {
		env.urls[i] = "/v1/decide?host=" + url.QueryEscape(q.Host) +
			"&agent=" + url.QueryEscape(q.Agent) + "&path=" + url.QueryEscape(q.Path)
	}
	f, err := fleet.NewSimFleet(env.first, sz.replicas, fleet.Config{})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	env.fleet = f
	if err := env.awaitVersion(env.first.Version); err != nil {
		env.close()
		return nil, err
	}
	// Warm both wires so the timed loop measures steady state.
	for w := 0; w < o.procs; w++ {
		var st clientStats
		if err := env.frameCalls(ctx, nil, w, 64, &st); err != nil {
			env.close()
			return nil, err
		}
		if err := env.jsonCalls(ctx, nil, w, 256, &st); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

func (env *fleetEnv) close() {
	if env != nil && env.fleet != nil {
		env.fleet.Close()
	}
}

// awaitVersion waits until the gateway reports v as the fleet version.
func (env *fleetEnv) awaitVersion(v string) error {
	deadline := time.Now().Add(10 * time.Second)
	for env.fleet.GW.FleetVersion() != v {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not converge on %s (at %q)", v, env.fleet.GW.FleetVersion())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// reset swaps every replica back to the first month.
func (env *fleetEnv) reset() error {
	env.fleet.SwapAll(env.first)
	return env.awaitVersion(env.first.Version)
}

// clientStats is one client goroutine's tally. Timed calls are kept per
// window of the drive they ended in, as 4-byte latencies, so memory stays
// small and steady however fast the fleet answers.
type clientStats struct {
	lat       [][]uint32 // per window: call latencies, ns
	dec       []int      // per window: decisions answered
	calls     int64
	latSum    time.Duration
	decisions int64 // answered
	attempted int64
	failed    int64
}

// observe records one timed call that answered n decisions.
func (st *clientStats) observe(ld *load, t0, t1 time.Time, n int) {
	k := int(t1.Sub(ld.start) / ld.window)
	for len(st.lat) <= k {
		st.lat = append(st.lat, nil)
		st.dec = append(st.dec, 0)
	}
	d := t1.Sub(t0)
	st.lat[k] = append(st.lat[k], uint32(min(d, math.MaxUint32)))
	st.dec[k] += n
	st.calls++
	st.latSum += d
}

// check compares one answered decision with the expected table and
// counts it.
func (st *clientStats) check(want []policyd.Decision, i int, got policyd.Decision) {
	st.attempted++
	st.decisions++
	if want == nil || want[i] != got {
		st.failed++
	}
}

// frameCalls runs n batches (n = 0: until ld stops) on one FrameClientV2
// connection to the gateway, starting at the client's own offset into
// the pool. A nil ld is an untimed warm-up.
func (env *fleetEnv) frameCalls(ctx context.Context, ld *load, client, n int, st *clientStats) error {
	fc, err := env.fleet.DialFrameV2(ctx, env.fleet.GatewayFrameAddr)
	if err != nil {
		return fmt.Errorf("dial gateway frames: %w", err)
	}
	defer func() { fc.Close() }()
	bs := env.o.sizes.batch
	nb := len(env.pool) / bs
	k := client * nb / env.o.procs
	out := make([]policyd.Decision, 0, bs)
	var lastV string
	var want []policyd.Decision
	for i := 0; n <= 0 || i < n; i++ {
		if ld != nil && ld.stopped() {
			return nil
		}
		qs := env.pool[k*bs : (k+1)*bs]
		t0 := time.Now()
		var v string
		out, v, err = fc.Decide(qs, out[:0])
		t1 := time.Now()
		if ld != nil {
			n := len(qs)
			if err != nil {
				n = 0
			}
			st.observe(ld, t0, t1, n)
			ld.rec.record(0, 0, "client.frame_call", t0, t1)
		}
		if err != nil {
			st.attempted += int64(len(qs))
			st.failed += int64(len(qs))
			fc.Close()
			if fc, err = env.fleet.DialFrameV2(ctx, env.fleet.GatewayFrameAddr); err != nil {
				return fmt.Errorf("redial gateway frames: %w", err)
			}
		} else {
			if v != lastV {
				lastV, want = v, env.want[v]
			}
			for j := range qs {
				st.check(want, k*bs+j, out[j])
			}
		}
		if k++; k == nb {
			k = 0
		}
	}
	return nil
}

// jsonCalls issues n single-decision GETs (n = 0: until ld stops) through
// the gateway on one keep-alive connection, checking each body byte for
// byte against the expected decision's rendering.
func (env *fleetEnv) jsonCalls(ctx context.Context, ld *load, client, n int, st *clientStats) error {
	hc := env.fleet.Client()
	defer hc.CloseIdleConnections()
	base := env.fleet.GatewayURL
	i := client * len(env.pool) / env.o.procs
	var body bytes.Buffer
	for c := 0; n <= 0 || c < n; c++ {
		if ld != nil && ld.stopped() {
			return nil
		}
		t0 := time.Now()
		ok, v := false, ""
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+env.urls[i], nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			body.Reset()
			_, err = body.ReadFrom(resp.Body)
			resp.Body.Close()
			ok = err == nil && resp.StatusCode == http.StatusOK
			v = resp.Header.Get("X-Policyd-Version")
		}
		t1 := time.Now()
		if ld != nil {
			n := 0
			if ok {
				n = 1
			}
			st.observe(ld, t0, t1, n)
			ld.rec.record(0, 0, "client.json_call", t0, t1)
		}
		st.attempted++
		if !ok {
			st.failed++
		} else {
			st.decisions++
			if want := env.want[v]; want == nil || !bytes.Equal(body.Bytes(), decisionBody(want[i])) {
				st.failed++
			}
		}
		if i++; i == len(env.pool) {
			i = 0
		}
	}
	return nil
}

// decisionBody is the exact JSON body a correct /v1/decide answer for d
// carries.
func decisionBody(d policyd.Decision) []byte {
	if b, ok := policyd.DecisionBody(d); ok {
		return b
	}
	b, _ := json.Marshal(d.JSON()) // a struct of two strings always encodes
	return append(b, '\n')
}

// load is one timed drive of the fleet.
type load struct {
	start  time.Time
	window time.Duration
	stop   chan struct{}
	rec    *spanRecorder
}

func (ld *load) stopped() bool {
	select {
	case <-ld.stop:
		return true
	default:
		return false
	}
}

// loadStats summarizes one drive.
type loadStats struct {
	elapsed, cpu time.Duration
	calls        int64
	latSum       time.Duration
	decisions    int64
	attempted    int64
	failed       int64
	// windows are the drive's consecutive windows of windowLen: the
	// rollover period, or the whole drive when shorter.
	windows   []window
	windowLen time.Duration
	rollovers int
	converge  []time.Duration
	// gateway counters, as deltas over the drive
	batches, replicaCalls, repinned uint64
	rt0, rt1                        runtimeCounters
}

// replicaCallCount sums the per-replica sub-batch latency histogram
// counts: one per routed replica call.
func (env *fleetEnv) replicaCallCount() uint64 {
	var n uint64
	for i := range env.fleet.Services {
		h := obs.NewHistogram(fmt.Sprintf(`fleet_replica_latency_ns{replica="policyd-%d"}`, i), "")
		n += h.Snapshot().Count
	}
	return n
}

// drive runs o.procs closed-loop clients on wire ("frame" or "json")
// for dur. With roll, a rollover every rollEvery compiles the next
// corpus month incrementally and swaps it into the replicas one by one.
func (env *fleetEnv) drive(ctx context.Context, wire string, dur time.Duration, roll bool, rec *spanRecorder) (*loadStats, error) {
	sz := env.o.sizes
	repinned := obs.NewCounter("fleet_batch_repinned_total", "")
	ls := &loadStats{}
	b0, rc0, rp0 := env.fleet.GW.Stats().Batches, env.replicaCallCount(), repinned.Value()
	runtime.GC() // set-up garbage is not charged to the timed loop
	ls.rt0 = readRuntime()
	cpu0 := cpuTime()
	ls.windowLen = min(sz.rollEvery, dur)
	ld := &load{start: time.Now(), window: ls.windowLen, stop: make(chan struct{}), rec: rec}

	var wg sync.WaitGroup
	stats := make([]clientStats, env.o.procs)
	errs := make([]error, env.o.procs+1)
	for w := 0; w < env.o.procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if wire == "frame" {
				errs[w] = env.frameCalls(ctx, ld, w, 0, &stats[w])
			} else {
				errs[w] = env.jsonCalls(ctx, ld, w, 0, &stats[w])
			}
		}(w)
	}
	if roll {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[env.o.procs] = env.rollovers(ctx, ld, ls)
		}()
	}
	// CPU time at each window boundary, for per-window CPU rates.
	cpuMarks := []time.Duration{cpu0}
	for k := 1; time.Duration(k)*ls.windowLen <= dur; k++ {
		time.Sleep(time.Until(ld.start.Add(time.Duration(k) * ls.windowLen)))
		cpuMarks = append(cpuMarks, cpuTime())
	}
	time.Sleep(time.Until(ld.start.Add(dur)))
	close(ld.stop)
	wg.Wait()
	ls.elapsed = time.Since(ld.start)
	ls.cpu = cpuTime() - cpu0
	ls.rt1 = readRuntime()
	ls.batches = env.fleet.GW.Stats().Batches - b0
	ls.replicaCalls = env.replicaCallCount() - rc0
	ls.repinned = repinned.Value() - rp0
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range stats {
		st := &stats[i]
		ls.calls += st.calls
		ls.latSum += st.latSum
		ls.decisions += st.decisions
		ls.attempted += st.attempted
		ls.failed += st.failed
	}
	ls.windows = mergeWindows(stats, cpuMarks)
	return ls, nil
}

// rollovers advances the fleet one corpus month per period until the
// load stops; after the last reference month it starts again at the
// first.
func (env *fleetEnv) rollovers(ctx context.Context, ld *load, ls *loadStats) error {
	sz := env.o.sizes
	watch, cancel := env.fleet.GW.Watch()
	defer cancel()
	prev := env.fleet.Services[0].Current()
	for k := 1; ; k++ {
		due := ld.start.Add(time.Duration(k) * sz.rollEvery)
		select {
		case <-ld.stop:
			return nil
		case <-time.After(time.Until(due)):
		}
		m := k % env.months
		t0 := time.Now()
		snap, err := policyd.FromCorpusIncremental(ctx, env.corpus, m, 1, prev)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("rollover compile month %d: %w", m, err)
		}
		root := ld.rec.record(0, 0, "rollover", t0, t0)
		ld.rec.record(root, root, "policyd.compile", t0, t1)
		first := time.Now()
		for i := range env.fleet.Services {
			if i > 0 {
				time.Sleep(sz.stagger)
			}
			s0 := time.Now()
			env.fleet.Swap(i, snap)
			ld.rec.record(root, root, "policyd.swap", s0, time.Now())
		}
		ls.attempted++
		converged := false
		timeout := time.After(5 * time.Second)
		for !converged {
			select {
			case v := <-watch:
				converged = v == snap.Version
			case <-timeout:
				ls.failed++ // the fleet never announced the new version
				converged = true
			}
		}
		done := time.Now()
		ld.rec.record(root, root, "fleet.converge", first, done)
		ls.converge = append(ls.converge, done.Sub(first))
		ls.rollovers++
		prev = snap
	}
}

// window is one period of a drive: the decisions its finished calls
// answered, the process CPU time it used, and its call latencies.
type window struct {
	decisions int
	cpu       time.Duration
	p50, p99  time.Duration
}

// mergeWindows combines the clients' per-window tallies; cpuMarks holds
// the process CPU time at each window boundary, so there are
// len(cpuMarks)-1 whole windows. Calls that ended after the last boundary
// are dropped.
func mergeWindows(stats []clientStats, cpuMarks []time.Duration) []window {
	ws := make([]window, len(cpuMarks)-1)
	for k := range ws {
		var lat []time.Duration
		for i := range stats {
			if k < len(stats[i].lat) {
				for _, d := range stats[i].lat[k] {
					lat = append(lat, time.Duration(d))
				}
				ws[k].decisions += stats[i].dec[k]
			}
		}
		sortDurations(lat)
		ws[k].cpu = cpuMarks[k+1] - cpuMarks[k]
		ws[k].p50, ws[k].p99 = pctile(lat, 0.50), pctile(lat, 0.99)
	}
	return ws
}

// fleetMonths is how many corpus months a fleet_frames run of the given
// length rolls through (the first plus one per period), at most every
// corpus month; a longer run cycles through them again.
func fleetMonths(o *options, dur time.Duration) int {
	n := int(math.Ceil(float64(dur) / float64(o.sizes.rollEvery)))
	if n < 2 {
		n = 2
	}
	if n > len(corpus.Snapshots) {
		n = len(corpus.Snapshots)
	}
	return n
}

func runFleetFrames(ctx context.Context, o *options) (*result, error) {
	return runFleet(ctx, o, "frame", true)
}

func runFleetJSON(ctx context.Context, o *options) (*result, error) {
	return runFleet(ctx, o, "json", false)
}

// runFleet is the end-to-end fleet measurement on one wire.
func runFleet(ctx context.Context, o *options, wire string, roll bool) (*result, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	months := 1
	if roll {
		months = fleetMonths(o, dur)
	}
	env, setupS, err := timeSetup(o.sizes.setupReps,
		func() (*fleetEnv, error) { return setupFleet(ctx, o, months) },
		func(e *fleetEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	ls, err := env.drive(ctx, wire, dur, roll, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: ls.attempted, Failed: ls.failed}
	var rate, cpuRate, p50, p99 []float64
	for _, w := range ls.windows {
		rate = append(rate, float64(w.decisions)/ls.windowLen.Seconds())
		cpuRate = append(cpuRate, float64(w.decisions)/w.cpu.Seconds())
		p50 = append(p50, us(w.p50))
		p99 = append(p99, us(w.p99))
	}
	res.set("ops_per_s", median(rate), "1/s")
	res.set("ops_per_cpu_s", median(cpuRate), "1/cpu-s")
	res.set("call_p50_us", median(p50), "us")
	res.set("call_p99_us", median(p99), "us")
	res.set("setup_s", setupS, "s")
	res.set("max_rss_mb", maxRSSMB(), "MiB")
	fmt.Fprintf(o.log, "# %s: %d calls, %d decisions in %v (%v CPU), %d rollovers; medians of %d %v windows: "+
		"decisions_per_s=%.0f decisions_per_cpu_s=%.0f call_p50_us=%.2f call_p99_us=%.2f\n",
		o.workload, ls.calls, ls.decisions, fmtDur(ls.elapsed), fmtDur(ls.cpu), ls.rollovers,
		len(ls.windows), ls.windowLen, res.Metrics["ops_per_s"].Value, res.Metrics["ops_per_cpu_s"].Value,
		res.Metrics["call_p50_us"].Value, res.Metrics["call_p99_us"].Value)
	fmt.Fprintf(o.log, "# per-window decisions/s %.0f\n# per-window decisions/cpu-s %.0f\n"+
		"# per-window p50 us %.1f\n# per-window p99 us %.1f\n", rate, cpuRate, p50, p99)
	return res, nil
}
