package proxy

import (
	"context"
	"sync"
	"testing"

	"repro/internal/golden"
)

// testdata/inference_survey.golden.json is the §6.3 Figure 7 survey as
// per-site servers and stdlib net/http produced it; both agreed byte for
// byte with the farm-hosted fast path before those oracles were retired.
// The proxied population mixes 403-with-body blocks and plain pages,
// exercising both response shapes. The survey runs once per test binary.
var inferenceSurvey = sync.OnceValues(func() (*CFSurveyResult, error) {
	return RunInferenceSurvey(context.Background(), 300, 11, 8)
})

func checkInferenceGolden(t *testing.T) {
	t.Parallel()
	res, err := inferenceSurvey()
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconclusive == 0 || res.OnBlock == 0 {
		t.Errorf("degenerate survey result: %+v", res)
	}
	golden.JSON(t, "inference_survey", res)
}

// TestFarmHostingParityInferenceSurvey: farm hosting leaves every
// classification and robots correlation of the per-site-server survey.
func TestFarmHostingParityInferenceSurvey(t *testing.T) { checkInferenceGolden(t) }

// TestFastHTTPParityInferenceSurvey: the hand-rolled framing leaves
// every classification and robots correlation of the stdlib survey.
func TestFastHTTPParityInferenceSurvey(t *testing.T) { checkInferenceGolden(t) }
