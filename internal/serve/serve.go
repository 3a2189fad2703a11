package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"walrus"
	"walrus/internal/imgio"
	"walrus/internal/obs"
	"walrus/internal/parallel"
	"walrus/internal/region"
)

// Backend is the engine surface the server drives; *walrus.DB, at any
// shard count, satisfies it.
type Backend interface {
	AddBatch(items []walrus.BatchItem, workers int) error
	Remove(id string) (bool, error)
	QueryContext(ctx context.Context, im *imgio.Image, p walrus.QueryParams) ([]walrus.Match, walrus.QueryStats, error)
	QueryByID(ctx context.Context, id string, p walrus.QueryParams) ([]walrus.Match, walrus.QueryStats, error)
	QuerySceneContext(ctx context.Context, im *imgio.Image, x, y, w, h int, p walrus.QueryParams) ([]walrus.Match, walrus.QueryStats, error)
	RegionsOf(id string) ([]region.Region, bool)
	Len() int
	NumRegions() int
	VersionVector() []uint64
	Flush() error
	Close() error
}

var _ Backend = (*walrus.DB)(nil)

// Config configures a Server. The zero value of every field except
// Backend has a usable default.
type Config struct {
	// Backend is the database to serve. Required.
	Backend Backend

	// MaxConcurrentQueries bounds the requests executing at once
	// (admission slots). 0 uses the machine's GOMAXPROCS.
	MaxConcurrentQueries int
	// QueueLimit bounds the requests waiting for a slot; beyond it
	// requests are shed with 429. 0 uses 4× the slot count.
	QueueLimit int
	// RequestTimeout is the per-request deadline, propagated through the
	// query pipeline. 0 uses 30s; negative disables deadlines.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses. 0 uses 1s.
	RetryAfter time.Duration
	// MaxBodyBytes caps request body size; a longer body is refused with
	// 413. 0 uses 16 MiB.
	MaxBodyBytes int64

	// DefaultParams are the query parameters requests start from before
	// applying their own overrides. Zero value uses DefaultQueryParams.
	DefaultParams walrus.QueryParams

	// Metrics, when non-nil, receives the walrus_serve_* instruments and
	// has the internal/obs mux (/metrics, /debug/...) mounted on the
	// server's own handler. It also enables live tracing: every admitted
	// request runs under a root span whose trace id is returned in the
	// X-Walrus-Trace response header and fetchable at /v1/trace/{id}.
	Metrics *obs.Registry

	// Log, when non-nil, receives structured logs: one access record per
	// admitted request at info level, slow-query records at warn, and
	// response-encode failures (after the status line was sent) at error.
	Log *slog.Logger
	// SlowQueryThreshold, when positive, logs every search whose engine
	// elapsed time meets it through Log — trace id, effective parameters
	// and the full candidate funnel including per-shard timings. 0
	// disables slow-query logging.
	SlowQueryThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentQueries <= 0 {
		c.MaxConcurrentQueries = parallel.Workers(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4 * c.MaxConcurrentQueries
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.DefaultParams == (walrus.QueryParams{}) {
		c.DefaultParams = walrus.DefaultQueryParams()
	}
	return c
}

// Server is the HTTP front-end. Create with New, serve with Serve or
// ListenAndServe (or mount it anywhere as an http.Handler), stop with
// Drain.
type Server struct {
	cfg     Config
	backend Backend
	adm     *admission
	mux     *http.ServeMux
	m       *metrics

	draining atomic.Bool

	// writeMu makes the process one writer: it is held around each
	// ingest's duplicate prescreen and AddBatch (see commit), and around
	// Drain's final Flush and Close.
	writeMu sync.Mutex

	mu sync.Mutex
	hs *http.Server // the Serve/ListenAndServe server, for Drain's Shutdown
}

// errDraining reports a request refused because the server is shutting
// down. Handlers map it to 503.
var errDraining = errors.New("serve: draining, no longer accepting writes")

// New builds a Server over cfg.Backend. The caller owns nothing after
// this: Drain flushes and closes the backend.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("serve: Config.Backend is required")
	}
	cfg = cfg.withDefaults()
	m := newMetrics(cfg.Metrics)
	s := &Server{
		cfg:     cfg,
		backend: cfg.Backend,
		adm:     newAdmission(cfg.MaxConcurrentQueries, cfg.QueueLimit, m),
		mux:     http.NewServeMux(),
		m:       m,
	}
	s.mux.HandleFunc("POST /v1/images", s.admitted(m.ingestRequests, s.handleIngest))
	s.mux.HandleFunc("DELETE /v1/images/{id}", s.admitted(m.deleteRequests, s.handleDelete))
	s.mux.HandleFunc("POST /v1/search", s.admitted(m.searchRequests, s.handleSearch))
	s.mux.HandleFunc("GET /v1/search", s.admitted(m.searchRequests, s.handleSearch))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	if cfg.Metrics != nil {
		oh := obs.Handler(cfg.Metrics)
		s.mux.Handle("GET /metrics", oh)
		s.mux.Handle("GET /debug/", oh)
	}
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Serve accepts connections on ln until Drain. It returns nil after a
// graceful drain — including one that began before Serve was called, in
// which case ln is closed without accepting.
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{Handler: s}
	s.mu.Lock()
	s.hs = hs
	draining := s.draining.Load()
	s.mu.Unlock()
	if draining {
		// Drain may have looked for hs before it was published and found
		// nothing to shut down. Drain sets draining before it takes mu, so
		// a Drain that missed hs is always seen here; closing hs makes the
		// Serve below close ln and return ErrServerClosed at once.
		if err := hs.Close(); err != nil {
			return fmt.Errorf("serve: closing after drain: %w", err)
		}
	}
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Drain gracefully stops the server: new requests are refused (readyz
// flips to 503, handlers answer 503), in-flight requests run to
// completion — queries finish against their pinned snapshots, writes
// commit and are acknowledged — then the backend is flushed and closed.
// An acknowledged write is therefore never lost: its AddBatch committed
// before its 2xx, and Flush and Close run under the write lock, after
// any commit in progress. A write that reaches the backend after Close
// (possible when the server is mounted as a plain handler, where there
// is no http.Server to wait on) fails with walrus.ErrClosed, which
// handlers answer 503, and commits nothing. ctx bounds the wait for
// in-flight requests. Drain is idempotent; only the first call does the
// work.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.m.draining.Set(1)
	s.m.drains.Inc()
	s.mu.Lock()
	hs := s.hs
	s.mu.Unlock()
	var firstErr error
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			firstErr = fmt.Errorf("serve: shutdown: %w", err)
		}
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.backend.Flush(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("serve: flushing backend: %w", err)
	}
	if err := s.backend.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("serve: closing backend: %w", err)
	}
	return firstErr
}

// admitted wraps a handler with the production envelope: drain check,
// per-request deadline, admission control, live request span (trace id
// on the response, context-propagated into the engine), latency
// accounting and the access log.
func (s *Server) admitted(reqs *obs.Counter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.fail(w, errDraining)
			return
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if err := s.adm.acquire(r.Context()); err != nil {
			s.fail(w, err)
			return
		}
		defer s.adm.release()
		reqs.Inc()
		start := obs.Clock()
		var span *obs.Span
		if s.cfg.Metrics != nil {
			span = s.cfg.Metrics.StartSpan("request")
			// The trace id goes on the wire before the handler runs, so even
			// failed requests hand the client a handle into /v1/trace/{id}.
			w.Header().Set("X-Walrus-Trace", obs.FormatTraceID(span.TraceID()))
			r = r.WithContext(obs.ContextWithSpan(r.Context(), span))
		}
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		span.SetAttr("status", int64(sw.code()))
		span.End()
		elapsed := obs.Since(start)
		s.m.requestSeconds.Observe(elapsed.Seconds())
		if s.cfg.Log != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code()),
				slog.Duration("elapsed", elapsed),
			}
			if span != nil {
				attrs = append(attrs, slog.String("trace", obs.FormatTraceID(span.TraceID())))
			}
			s.cfg.Log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	}
}

// statusWriter captures the response status for the access log and the
// request span; code() defaults to 200 when the handler never called
// WriteHeader explicitly.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// handleTrace serves the live span tree of one trace id, as returned in
// the X-Walrus-Trace header. The span ring is the whole trace store, so
// old traces expire as the ring wraps; walrus_obs_spans_dropped_total
// counts what has been lost.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Metrics == nil {
		s.failStatus(w, http.StatusNotFound, "tracing disabled: server runs without a metrics registry")
		return
	}
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		s.failStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	spans := s.cfg.Metrics.Tracer().TraceSpans(id)
	if len(spans) == 0 {
		s.failStatus(w, http.StatusNotFound, "trace not found (it may have expired from the span ring)")
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"trace": obs.FormatTraceID(id),
		"spans": spans,
	})
}

// ingestPayload is the JSON batch-ingest body: PPM bytes are base64 in
// the wire form, decoded transparently by encoding/json.
type ingestPayload struct {
	Images []struct {
		ID  string `json:"id"`
		PPM []byte `json:"ppm"`
	} `json:"images"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var items []walrus.BatchItem
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var payload ingestPayload
		if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
			s.failBody(w, "decoding JSON body: ", err)
			return
		}
		if len(payload.Images) == 0 {
			s.failStatus(w, http.StatusBadRequest, "empty image batch")
			return
		}
		for _, img := range payload.Images {
			if img.ID == "" {
				s.failStatus(w, http.StatusBadRequest, "image with empty id")
				return
			}
			im, err := imgio.DecodePPM(bytes.NewReader(img.PPM))
			if err != nil {
				s.failStatus(w, http.StatusBadRequest, fmt.Sprintf("image %q: %v", img.ID, err))
				return
			}
			items = append(items, walrus.BatchItem{ID: img.ID, Image: im})
		}
	} else {
		id := r.URL.Query().Get("id")
		if id == "" {
			s.failStatus(w, http.StatusBadRequest, "missing id parameter")
			return
		}
		im, err := imgio.DecodePPM(r.Body)
		if err != nil {
			s.failBody(w, "decoding PPM body: ", err)
			return
		}
		items = []walrus.BatchItem{{ID: id, Image: im}}
	}
	if err := s.commit(items); err != nil {
		s.fail(w, err)
		return
	}
	ids := make([]string, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	s.writeJSON(w, http.StatusCreated, map[string]any{"added": len(ids), "ids": ids})
}

// commit indexes one ingest request's items with a single AddBatch.
// writeMu makes this the process's only writer, so the duplicate
// prescreen is exact: a request is refused whole (409) when any of its
// ids is already stored or repeats within it, AddBatch then cannot fail
// on a duplicate, and a request whose ids span shards commits all of its
// items or none. Each shard the request touches publishes one version.
func (s *Server) commit(items []walrus.BatchItem) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	seen := make(map[string]bool, len(items))
	for _, it := range items {
		if _, dup := s.backend.RegionsOf(it.ID); dup || seen[it.ID] {
			return fmt.Errorf("serve: image %q %w", it.ID, walrus.ErrDuplicateID)
		}
		seen[it.ID] = true
	}
	return s.backend.AddBatch(items, 0)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.backend.Remove(id)
	if err != nil {
		s.fail(w, err)
		return
	}
	if !ok {
		s.fail(w, fmt.Errorf("serve: image %q: %w", id, walrus.ErrUnknownID))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"removed": id})
}

// matchResult is one search hit on the wire.
type matchResult struct {
	ID              string  `json:"id"`
	Similarity      float64 `json:"similarity"`
	MatchingRegions int     `json:"matching_regions"`
}

// searchResponse is the /v1/search reply. Explain is present only when
// the request asked for explain=1: the stage-by-stage candidate funnel
// of this query.
type searchResponse struct {
	Matches []matchResult `json:"matches"`
	Stats   struct {
		QueryRegions     int     `json:"query_regions"`
		RegionsRetrieved int     `json:"regions_retrieved"`
		CandidateImages  int     `json:"candidate_images"`
		ElapsedSeconds   float64 `json:"elapsed_seconds"`
	} `json:"stats"`
	Explain *walrus.QueryTrace `json:"explain,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p := s.cfg.DefaultParams
	var parseErr error
	getFloat := func(key string, dst *float64) {
		if v := q.Get(key); v != "" && parseErr == nil {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0) { // negative or NaN
				parseErr = fmt.Errorf("bad %s=%q", key, v)
				return
			}
			*dst = f
		}
	}
	getFloat("epsilon", &p.Epsilon)
	getFloat("tau", &p.Tau)
	if q.Get("threshold") != "" { // alias for tau
		getFloat("threshold", &p.Tau)
	}
	if v := q.Get("k"); v != "" && parseErr == nil {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			parseErr = fmt.Errorf("bad k=%q", v)
		} else {
			p.Limit = k
		}
	}
	if v := q.Get("refine"); v != "" && parseErr == nil {
		b, err := strconv.ParseBool(v)
		if err != nil {
			parseErr = fmt.Errorf("bad refine=%q", v)
		} else {
			p.Refine = b
		}
	}
	if v := q.Get("nocache"); v != "" && parseErr == nil {
		b, err := strconv.ParseBool(v)
		if err != nil {
			parseErr = fmt.Errorf("bad nocache=%q", v)
		} else {
			p.NoCache = b
		}
	}
	explain := false
	if v := q.Get("explain"); v != "" && parseErr == nil {
		b, err := strconv.ParseBool(v)
		if err != nil {
			parseErr = fmt.Errorf("bad explain=%q", v)
		} else {
			explain = b
		}
	}
	var rx, ry, rw, rh int
	hasRegion := q.Get("region") != ""
	if hasRegion && parseErr == nil {
		if n, err := fmt.Sscanf(q.Get("region"), "%d,%d,%d,%d", &rx, &ry, &rw, &rh); err != nil || n != 4 {
			parseErr = fmt.Errorf("bad region=%q (want x,y,w,h)", q.Get("region"))
		}
	}
	if parseErr != nil {
		s.failStatus(w, http.StatusBadRequest, parseErr.Error())
		return
	}

	// The funnel accumulator rides the context when the client asked for
	// it, or when slow-query logging may need it after the fact.
	ctx := r.Context()
	var qt *walrus.QueryTrace
	if explain || s.cfg.SlowQueryThreshold > 0 {
		ctx, qt = walrus.WithQueryTrace(ctx)
	}

	var (
		matches []walrus.Match
		stats   walrus.QueryStats
		err     error
	)
	if id := q.Get("id"); id != "" {
		if hasRegion {
			s.failStatus(w, http.StatusBadRequest, "region= cannot be combined with id=")
			return
		}
		matches, stats, err = s.backend.QueryByID(ctx, id, p)
	} else {
		if r.Method != http.MethodPost {
			s.failStatus(w, http.StatusBadRequest, "GET search requires id=; POST a PPM body otherwise")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		var im *imgio.Image
		im, err = imgio.DecodePPM(r.Body)
		if err != nil {
			s.failBody(w, "decoding PPM body: ", err)
			return
		}
		if hasRegion {
			matches, stats, err = s.backend.QuerySceneContext(ctx, im, rx, ry, rw, rh, p)
		} else {
			matches, stats, err = s.backend.QueryContext(ctx, im, p)
		}
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	// A backend with a result cache reports each query's cache outcome;
	// surface it so clients and tests can tell a hit from a recompute.
	if stats.Cache != "" {
		w.Header().Set("X-Walrus-Cache", stats.Cache)
	}
	if qt != nil && s.cfg.SlowQueryThreshold > 0 && stats.Elapsed >= s.cfg.SlowQueryThreshold {
		s.m.slowQueries.Inc()
		s.logSlowQuery(r, qt, stats)
	}
	resp := searchResponse{Matches: make([]matchResult, len(matches))}
	if explain {
		resp.Explain = qt
	}
	for i, m := range matches {
		resp.Matches[i] = matchResult{ID: m.ID, Similarity: m.Similarity, MatchingRegions: m.MatchingRegions}
	}
	resp.Stats.QueryRegions = stats.QueryRegions
	resp.Stats.RegionsRetrieved = stats.RegionsRetrieved
	resp.Stats.CandidateImages = stats.CandidateImages
	resp.Stats.ElapsedSeconds = stats.Elapsed.Seconds()
	s.writeJSON(w, http.StatusOK, resp)
}

// logSlowQuery emits one structured slow-query record: trace id,
// effective parameters, the funnel's totals and each shard's share of
// the work, so a slow search is diagnosable from the log line alone.
func (s *Server) logSlowQuery(r *http.Request, qt *walrus.QueryTrace, stats walrus.QueryStats) {
	if s.cfg.Log == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("trace", qt.TraceID),
		slog.Duration("elapsed", stats.Elapsed),
		slog.Float64("epsilon", qt.Params.Epsilon),
		slog.Float64("tau", qt.Params.Tau),
		slog.Int("limit", qt.Params.Limit),
		slog.Bool("refine", qt.Params.Refine),
		slog.Int("query_regions", qt.QueryRegions),
		slog.Int("regions_retrieved", stats.RegionsRetrieved),
		slog.Int("candidates", stats.CandidateImages),
		slog.Int("matches", qt.Matches),
	}
	for _, sh := range qt.Shards {
		attrs = append(attrs, slog.Group(fmt.Sprintf("shard%d", sh.Shard),
			slog.Int64("probe_us", sh.ProbeNS/1000),
			slog.Int64("score_us", sh.ScoreNS/1000),
			slog.Int("candidates", sh.CandidateImages),
			slog.Int("matches", sh.Matches)))
	}
	s.cfg.Log.LogAttrs(r.Context(), slog.LevelWarn, "slow query", attrs...)
}

// statsResponse is the /v1/stats reply.
type statsResponse struct {
	Images         int      `json:"images"`
	Regions        int      `json:"regions"`
	Sharded        bool     `json:"sharded"`
	Shards         int      `json:"shards,omitempty"`
	Version        uint64   `json:"version,omitempty"`
	VersionVector  []uint64 `json:"version_vector,omitempty"`
	ActiveRequests int      `json:"active_requests"`
	QueuedRequests int      `json:"queued_requests"`
	Draining       bool     `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Images:         s.backend.Len(),
		Regions:        s.backend.NumRegions(),
		ActiveRequests: s.adm.running(),
		QueuedRequests: s.adm.depth(),
		Draining:       s.draining.Load(),
	}
	if vv := s.backend.VersionVector(); len(vv) == 1 {
		resp.Version = vv[0]
	} else {
		resp.Sharded = true
		resp.Shards = len(vv)
		resp.VersionVector = vv
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// statusFor maps engine and serving errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, walrus.ErrDuplicateID):
		return http.StatusConflict
	case errors.Is(err, walrus.ErrUnknownID):
		return http.StatusNotFound
	case errors.Is(err, errSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining), errors.Is(err, walrus.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	s.failStatus(w, status, err.Error())
}

// failBody answers a request whose body did not decode: 413 when the
// body ran past MaxBodyBytes, else 400. The message is prefix followed by
// the error.
func (s *Server) failBody(w http.ResponseWriter, prefix string, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.failStatus(w, status, prefix+err.Error())
}

func (s *Server) failStatus(w http.ResponseWriter, status int, msg string) {
	s.m.requestErrors.Inc()
	s.writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already on the wire: an encode failure here can
	// only be logged, not turned into a different response.
	if err := json.NewEncoder(w).Encode(v); err != nil && s.cfg.Log != nil {
		s.cfg.Log.Error("encoding response", "err", err)
	}
}
