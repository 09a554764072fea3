package policyd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// The JSON API, served identically over netsim (in-harness experiments)
// and real TCP (cmd/policyd):
//
//	GET  /v1/decide?host=H&agent=U&path=P   -> {"action":"allow","signal":"none"}
//	POST /v1/batch  {"queries":[{...}]}     -> {"decisions":[{...}]}
//	GET  /v1/stats                          -> {"queries":N,"version":...,"hosts":N,"shards":N}
//	GET  /healthz                           -> ok

// Timeouts of the daemons' real-TCP HTTP listeners (NewServer). Without
// them a client that sends half a request header, or parks an idle
// keep-alive connection, holds a goroutine and a socket forever.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewServer returns the http.Server cmd/policyd and cmd/policygw serve
// their JSON API and metrics listeners with: h at addr, with the
// header-read and idle timeouts set.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// DecisionJSON is a decision's wire form.
type DecisionJSON struct {
	Action string `json:"action"`
	Signal string `json:"signal"`
}

// JSON converts a decision to its wire form.
func (d Decision) JSON() DecisionJSON {
	return DecisionJSON{Action: d.Action.String(), Signal: d.Signal.String()}
}

// BatchRequest is the /v1/batch request body.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// BatchResponse is the /v1/batch response body; decisions align with
// the request's queries by index.
type BatchResponse struct {
	Decisions []DecisionJSON `json:"decisions"`
}

// MaxBatch bounds one /v1/batch request, like any ingress guard.
const MaxBatch = 4096

// maxBatchBytes caps the /v1/batch request body so the size guard holds
// before JSON decoding allocates anything: MaxBatch queries with
// generous host/agent/path strings fit well within it.
const maxBatchBytes = 4 << 20

// NewHandler returns the service's HTTP API.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decide", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := Query{
			Host:  r.URL.Query().Get("host"),
			Agent: r.URL.Query().Get("agent"),
			Path:  r.URL.Query().Get("path"),
		}
		if q.Host == "" || q.Agent == "" {
			http.Error(w, "host and agent are required", http.StatusBadRequest)
			return
		}
		mWireJSON.Inc()
		writeDecision(w, svc.Decide(q))
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req BatchRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
			return
		}
		if len(req.Queries) > MaxBatch {
			http.Error(w, fmt.Sprintf("batch exceeds %d queries", MaxBatch), http.StatusRequestEntityTooLarge)
			return
		}
		mWireJSON.Inc()
		decisions := svc.DecideBatch(req.Queries, make([]Decision, 0, len(req.Queries)))
		resp := BatchResponse{Decisions: make([]DecisionJSON, len(decisions))}
		for i, d := range decisions {
			resp.Decisions[i] = d.JSON()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, svc.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decideResponses holds the pre-rendered /v1/decide body for every
// (action, signal) pair. The single-query endpoint dominates wire
// traffic and its response space is tiny, so rendering the 18 bodies
// once turns the hot path's marshal into an index and a write.
var decideResponses = func() (t [Block + 1][SignalMeta + 1][]byte) {
	for a := Allow; a <= Block; a++ {
		for s := SignalNone; s <= SignalMeta; s++ {
			b, err := json.Marshal(Decision{Action: a, Signal: s}.JSON())
			if err != nil {
				panic(err)
			}
			t[a][s] = append(b, '\n')
		}
	}
	return t
}()

// DecisionBody returns the pre-rendered /v1/decide response body for d
// (trailing newline included), or ok=false for out-of-range pairs. The
// fleet gateway renders with the same bytes so gateway-routed responses
// are byte-identical to a replica's.
func DecisionBody(d Decision) ([]byte, bool) {
	if d.Action <= Block && d.Signal <= SignalMeta {
		return decideResponses[d.Action][d.Signal], true
	}
	return nil, false
}

// writeDecision writes a single decision, pre-rendered when the pair is
// in range (always, for decisions the service produces).
func writeDecision(w http.ResponseWriter, d Decision) {
	if d.Action <= Block && d.Signal <= SignalMeta {
		w.Header().Set("Content-Type", "application/json")
		w.Write(decideResponses[d.Action][d.Signal])
		return
	}
	writeJSON(w, d.JSON())
}
