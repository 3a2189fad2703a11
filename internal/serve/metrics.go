package serve

import "walrus/internal/obs"

// metrics holds the serving layer's pre-resolved observability handles
// in the walrus_serve_* namespace. A nil registry yields nil handles,
// whose operations are no-ops — the same disabled fast path the engine
// uses — so no serving code branches on "is observability on".
type metrics struct {
	ingestRequests *obs.Counter
	searchRequests *obs.Counter
	deleteRequests *obs.Counter
	requestErrors  *obs.Counter
	requestSeconds *obs.Histogram

	admitted      *obs.Counter
	shed          *obs.Counter
	queueDepth    *obs.Gauge
	active        *obs.Gauge
	admissionWait *obs.Histogram
	deadlineDrops *obs.Counter

	slowQueries *obs.Counter

	draining *obs.Gauge
	drains   *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		ingestRequests: reg.Counter("walrus_serve_ingest_requests_total", "Ingest (POST /v1/images) requests accepted for processing."),
		searchRequests: reg.Counter("walrus_serve_search_requests_total", "Search (POST|GET /v1/search) requests accepted for processing."),
		deleteRequests: reg.Counter("walrus_serve_delete_requests_total", "Delete (DELETE /v1/images/{id}) requests accepted for processing."),
		requestErrors:  reg.Counter("walrus_serve_request_errors_total", "Requests answered with a 4xx/5xx status."),
		requestSeconds: reg.Histogram("walrus_serve_request_seconds", "End-to-end latency of admitted requests.", nil),

		admitted:      reg.Counter("walrus_serve_admitted_total", "Requests that acquired an admission slot."),
		shed:          reg.Counter("walrus_serve_shed_total", "Requests shed with 429 because the admission queue was full."),
		queueDepth:    reg.Gauge("walrus_serve_admission_queue_depth", "Requests currently waiting for an admission slot."),
		active:        reg.Gauge("walrus_serve_active_requests", "Requests currently holding an admission slot."),
		admissionWait: reg.Histogram("walrus_serve_admission_wait_seconds", "Time queued requests waited for an admission slot.", nil),
		deadlineDrops: reg.Counter("walrus_serve_deadline_drops_total", "Queued requests abandoned because their deadline expired before a slot freed."),

		slowQueries: reg.Counter("walrus_serve_slow_queries_total", "Searches whose engine time met Config.SlowQueryThreshold."),

		draining: reg.Gauge("walrus_serve_draining", "1 while the server is draining, 0 otherwise."),
		drains:   reg.Counter("walrus_serve_drains_total", "Graceful drains initiated."),
	}
}
