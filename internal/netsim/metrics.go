package netsim

import "repro/internal/obs"

// Fast-path HTTP client metrics. Registered at init so the families
// appear in /metrics (with zero values) in any binary that links
// netsim, traffic or not. The framing split is a label on one family:
// path="fast" is the hand-rolled framing; path="legacy" counts only the
// requests the fast transport handed to its stdlib fallback because they
// fell outside the closed-world subset (the label name predates the
// fallback being the only stdlib path left).
var (
	mHTTPFastRequests = obs.NewCounter(`netsim_http_requests_total{path="fast"}`,
		"HTTP requests through the netsim client, by framing path.")
	mHTTPLegacyRequests = obs.NewCounter(`netsim_http_requests_total{path="legacy"}`,
		"HTTP requests through the netsim client, by framing path.")
	mHTTPRetries = obs.NewCounter("netsim_http_retries_total",
		"Requests replayed on a fresh conn after a pooled conn turned out dead.")
	mHTTPPoolHits = obs.NewCounter(`netsim_http_pool_total{result="hit"}`,
		"Idle-pool lookups by outcome (hit reuses a conn, miss dials).")
	mHTTPPoolMisses = obs.NewCounter(`netsim_http_pool_total{result="miss"}`,
		"Idle-pool lookups by outcome (hit reuses a conn, miss dials).")
	mHTTPBytesOut = obs.NewCounter(`netsim_http_bytes_total{dir="out"}`,
		"Bytes written/read by the fast-path client, by direction.")
	mHTTPBytesIn = obs.NewCounter(`netsim_http_bytes_total{dir="in"}`,
		"Bytes written/read by the fast-path client, by direction.")
	mHTTPLatency = obs.NewHistogram("netsim_http_request_latency_ns",
		"Fast-path request latency (write to response headers parsed), ns.")
)
