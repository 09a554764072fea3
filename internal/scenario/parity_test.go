package scenario

import (
	"context"
	"sync"
	"testing"

	"repro/internal/golden"
	"repro/internal/measure"
)

// testdata/observed_world.golden.json is the observed-world builtin as
// the stdlib-era oracles ran it — per-request dialing, stock net/http on
// client and servers, one dedicated server per site — all of which
// agreed byte for byte with the pooled, hand-rolled, farm-hosted path
// before they were retired. Crawl waves are real HTTP, and site sims
// join and leave their shard's farm over the run, so this is the
// broadest check: crawls, blockers, 421s and site churn. The run
// happens once per test binary.

// observedView is the part of a Result the parity contract covers.
type observedView struct {
	Months               []MonthMetrics
	Verdicts             map[string]measure.Verdict
	TotalVisits          int
	TotalDisallowedBytes int64
	TotalBlockedRequests int
}

var observedRun = sync.OnceValues(func() (*Result, error) {
	return Run(context.Background(), Observed(11, 8, 12), 4)
})

func checkObservedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario parity run in -short mode")
	}
	t.Parallel()
	res, err := observedRun()
	if err != nil {
		t.Fatal(err)
	}
	golden.JSON(t, "observed_world", observedView{res.Months, res.Verdicts,
		res.TotalVisits, res.TotalDisallowedBytes, res.TotalBlockedRequests})
}

// TestKeepAliveParityObservedScenario: transport pooling changed no
// measured byte of the scenario.
func TestKeepAliveParityObservedScenario(t *testing.T) { checkObservedGolden(t) }

// TestFastHTTPParityObservedScenario: the hand-rolled framing changed
// no measured byte of the scenario.
func TestFastHTTPParityObservedScenario(t *testing.T) { checkObservedGolden(t) }

// TestFarmHostingParityObservedScenario: the per-shard farms, including
// their StartSite/Remove lifecycle, changed no measured byte of the
// scenario.
func TestFarmHostingParityObservedScenario(t *testing.T) { checkObservedGolden(t) }
