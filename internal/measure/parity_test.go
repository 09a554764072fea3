package measure

import (
	"context"
	"sync"
	"testing"

	"repro/internal/crawler"
	"repro/internal/golden"
	"repro/internal/netsim"
	"repro/internal/webserver"
)

// The parity goldens. Each file under testdata/ is the output of the
// stdlib-era oracles — per-request dialing, stock net/http client and
// server, one dedicated server per site — which agreed byte for byte
// with the pooled, hand-rolled, farm-hosted path before those oracles
// were retired. The tests below hold the remaining path to that output.
// Each study runs once per test binary; the parity tests for the three
// retired oracles share it.

// passiveView is the part of the passive study the parity contract
// covers: everything Table 1 is derived from.
type passiveView struct {
	Verdicts   map[string]Verdict
	IPVerified map[string]bool
	Visitors   []string
}

var passiveStudy = sync.OnceValues(func() (*PassiveResult, error) {
	return RunPassive(context.Background(), 7)
})

func checkPassiveGolden(t *testing.T) {
	t.Parallel()
	res, err := passiveStudy()
	if err != nil {
		t.Fatal(err)
	}
	golden.JSON(t, "passive_study", passiveView{res.Verdicts, res.IPVerified, res.Visitors})
}

// TestKeepAliveParityPassiveStudy: pooled keep-alive connections leave
// the §5 passive study as the per-request-dial transport produced it.
func TestKeepAliveParityPassiveStudy(t *testing.T) { checkPassiveGolden(t) }

// TestFastHTTPParityPassiveStudy: the hand-rolled HTTP/1.1 framing
// leaves the passive study as stdlib net/http produced it.
func TestFastHTTPParityPassiveStudy(t *testing.T) { checkPassiveGolden(t) }

// TestFarmHostingParityPassiveStudy: virtual-host dispatch on a shared
// listener leaves the passive study as per-site servers produced it.
func TestFarmHostingParityPassiveStudy(t *testing.T) { checkPassiveGolden(t) }

// TestFarmHostingParityActiveStudy covers the §5.2.2 active study,
// whose probe sites join and leave the farm mid-run.
func TestFarmHostingParityActiveStudy(t *testing.T) {
	t.Parallel()
	res, err := RunActive(context.Background(), 7, 40)
	if err != nil {
		t.Fatal(err)
	}
	golden.JSON(t, "active_study", res)
}

// logRecord is a server-log record without its wall-clock time, which
// is not part of the measurement contract: same source IPs, user
// agents, paths in the same order, statuses and byte counts.
type logRecord struct {
	RemoteIP  string
	UserAgent string
	Path      string
	Status    int
	Bytes     int
}

var crawlFleetLog = sync.OnceValues(captureCrawlFleetLog)

// captureCrawlFleetLog drives four crawlers of different behaviours at
// one farm-hosted site, two waves each, and returns the site's log.
func captureCrawlFleetLog() ([]logRecord, error) {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.91")
	if err != nil {
		return nil, err
	}
	defer farm.Close()
	site, err := farm.StartSite(webserver.WildcardDisallowSite("parity.test", "203.0.113.90"))
	if err != nil {
		return nil, err
	}
	profiles := []crawler.Profile{
		{Token: "GPTBot", SourceIP: "24.0.1.10", Behavior: crawler.Compliant},
		{Token: "Bytespider", SourceIP: "30.0.1.10", Behavior: crawler.FetchIgnore},
		{Token: "WebFetcher", SourceIP: "100.64.0.10", Behavior: crawler.NoFetch},
		{Token: "BuggyBot", SourceIP: "100.65.0.10", Behavior: crawler.BuggyFetch},
	}
	ctx := context.Background()
	for _, p := range profiles {
		cr, err := crawler.New(nw, p)
		if err != nil {
			return nil, err
		}
		// Two waves each: pooled connections carry over between waves.
		for wave := 0; wave < 2; wave++ {
			if _, err := cr.Crawl(ctx, site.URL()); err != nil {
				return nil, err
			}
		}
	}
	var out []logRecord
	for _, r := range site.Log() {
		out = append(out, logRecord{r.RemoteIP, r.UserAgent, r.Path, r.Status, r.Bytes})
	}
	return out, nil
}

func checkServerLogGolden(t *testing.T) {
	t.Parallel()
	recs, err := crawlFleetLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no traffic captured")
	}
	golden.JSON(t, "server_log", recs)
}

// TestKeepAliveParityServerLogs: the crawler fleet's server log, record
// for record, as the per-request-dial transport produced it.
func TestKeepAliveParityServerLogs(t *testing.T) { checkServerLogGolden(t) }

// TestFastHTTPParityServerLogs: the same log as stdlib net/http on both
// ends produced it.
func TestFastHTTPParityServerLogs(t *testing.T) { checkServerLogGolden(t) }

// TestFarmHostingParityServerLogs: the same log as a dedicated per-site
// server produced it.
func TestFarmHostingParityServerLogs(t *testing.T) { checkServerLogGolden(t) }
