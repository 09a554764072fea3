package blocking

import (
	"context"
	"sync"
	"testing"

	"repro/internal/golden"
)

// testdata/survey.golden.json is the §6.2 survey as per-site servers
// and stdlib net/http produced it; both agreed byte for byte with the
// farm-hosted fast path before those oracles were retired. The survey
// runs once per test binary.
var survey = sync.OnceValues(func() (*SurveyResult, error) {
	return RunSurvey(context.Background(), 300, 11, 8, DefaultDetector)
})

func checkSurveyGolden(t *testing.T) {
	t.Parallel()
	res, err := survey()
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveBlockers == 0 || res.InherentlyBlocked == 0 {
		t.Errorf("degenerate survey result: %+v", res)
	}
	golden.JSON(t, "survey", res)
}

// TestFarmHostingParitySurvey: hosting the whole population on one
// virtual-host farm changes no verdict of the per-site-server survey.
func TestFarmHostingParitySurvey(t *testing.T) { checkSurveyGolden(t) }

// TestFastHTTPParitySurvey: the hand-rolled HTTP/1.1 framing changes no
// verdict of the stdlib net/http survey.
func TestFastHTTPParitySurvey(t *testing.T) { checkSurveyGolden(t) }
