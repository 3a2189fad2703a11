package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"walrus"
	"walrus/internal/imgio"
	"walrus/internal/obs"
	"walrus/internal/serve"
)

const (
	writeShare   = 0.15                  // of requests are POST /v1/images
	sloP95       = 50 * time.Millisecond // search latency limit for serve.max_rate_in_slo_rps
	rateStepRuns = 5                     // geometric rates tried
	rateStepBase = 400.0                 // the second of them, req/s; the knee lies inside their range
)

// server is one serve.Server on a loopback listener.
type server struct {
	srv  *serve.Server
	url  string
	done chan error // Serve's return value
}

func startServer(backend serve.Backend, reg *obs.Registry) (*server, error) {
	srv, err := serve.New(serve.Config{Backend: backend, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	// Started means answering: a Drain that overtakes Serve's first steps
	// would leave the accept loop running for good.
	probe := &http.Client{Transport: &http.Transport{}}
	defer probe.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := probe.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server at %s never became ready: %v", s.url, err)
		}
	}
}

// stop drains the server (which flushes and closes its backend) and
// waits for the accept loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(s.srv.Drain(ctx), <-s.done)
}

// serveState is the preloaded fleet behind its server.
type serveState struct {
	backend *walrus.Sharded
	srv     *server
}

func (st serveState) discard() error { return st.srv.stop() }

// request is one scheduled HTTP request and, once sent, its reply.
type request struct {
	write bool
	id    string // write: the new image's id
	q     int    // search: which of the distinct queries
	cat   string // search: the query's ground-truth category
	url   string
	body  []byte

	status int
	reply  []byte
	cache  string // X-Walrus-Cache of the reply
}

// serveHarness generates the traffic mix and checks replies.
type serveHarness struct {
	cp        corpus
	client    *http.Client
	queries   []request // the distinct search bodies
	nextWrite int       // next unused corpus index for an ingest
	rng       *rand.Rand
	zipf      *rand.Zipf
}

func newServeHarness(cp corpus) (*serveHarness, error) {
	h := &serveHarness{cp: cp, nextWrite: serveCorpus, rng: cp.rng(2, 0)}
	// One connection per load-generating goroutine, never more.
	conns := runtime.NumCPU()
	h.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	h.zipf = rand.NewZipf(h.rng, 1.1, 1, serveQueries-1)
	for q := 0; q < serveQueries; q++ {
		v, err := cp.variant(q, serveCorpus)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := imgio.EncodePPM(&buf, v.Image); err != nil {
			return nil, err
		}
		h.queries = append(h.queries, request{q: q, cat: string(v.Cat), body: buf.Bytes()})
	}
	return h, nil
}

// schedule draws n requests against base: 85% searches whose bodies are
// Zipf-drawn from the query set (so some repeat and can hit the result
// cache until the next write invalidates it), 15% ingests of new images.
func (h *serveHarness) schedule(base string, n int) ([]request, error) {
	reqs := make([]request, n)
	for i := range reqs {
		if h.rng.Float64() >= writeShare {
			reqs[i] = h.queries[h.zipf.Uint64()]
			reqs[i].url = fmt.Sprintf("%s/v1/search?k=%d", base, queryLimit)
			continue
		}
		it := h.cp.item(h.nextWrite)
		h.nextWrite++
		var buf bytes.Buffer
		if err := imgio.EncodePPM(&buf, it.Image); err != nil {
			return nil, err
		}
		reqs[i] = request{write: true, id: it.ID, url: base + "/v1/images?id=" + it.ID, body: buf.Bytes()}
	}
	return reqs, nil
}

// send performs the HTTP exchange only; replies are checked after the
// run so that checking is not inside anyone's latency.
func (h *serveHarness) send(r *request) error {
	resp, err := h.client.Post(r.url, "image/x-portable-pixmap", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Walrus-Cache")
	r.reply, err = io.ReadAll(resp.Body)
	return err
}

// searchReply and ingestReply are the wire shapes the server documents.
type searchReply struct {
	Matches []struct {
		ID              string  `json:"id"`
		Similarity      float64 `json:"similarity"`
		MatchingRegions int     `json:"matching_regions"`
	} `json:"matches"`
	Stats *struct {
		QueryRegions int `json:"query_regions"`
	} `json:"stats"`
}

type ingestReply struct {
	Added int      `json:"added"`
	IDs   []string `json:"ids"`
}

// validate checks status, JSON shape and k. For a search it also returns
// the result ids.
func (r *request) validate() ([]string, error) {
	if r.write {
		if r.status != http.StatusCreated {
			return nil, fmt.Errorf("ingest %s: status %d: %s", r.id, r.status, bytes.TrimSpace(r.reply))
		}
		var rep ingestReply
		if err := json.Unmarshal(r.reply, &rep); err != nil {
			return nil, fmt.Errorf("ingest %s: %w", r.id, err)
		}
		if rep.Added != 1 || len(rep.IDs) != 1 || rep.IDs[0] != r.id {
			return nil, fmt.Errorf("ingest %s: reply %s", r.id, bytes.TrimSpace(r.reply))
		}
		return nil, nil
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("search: status %d: %s", r.status, bytes.TrimSpace(r.reply))
	}
	var rep searchReply
	if err := json.Unmarshal(r.reply, &rep); err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	if rep.Stats == nil || rep.Stats.QueryRegions < 1 {
		return nil, fmt.Errorf("search: reply without stats")
	}
	// No match at all is a valid answer: a crop or occlusion can leave a
	// query with regions that nothing in the fleet is within epsilon of.
	if len(rep.Matches) > queryLimit {
		return nil, fmt.Errorf("search (query %d): %d matches for k=%d", r.q, len(rep.Matches), queryLimit)
	}
	ids := make([]string, len(rep.Matches))
	for i, m := range rep.Matches {
		if m.ID == "" || m.Similarity < 0 || m.Similarity > 1 || (i > 0 && m.Similarity > rep.Matches[i-1].Similarity) {
			return nil, fmt.Errorf("search: malformed or unsorted match at rank %d", i+1)
		}
		ids[i] = m.ID
	}
	return ids, nil
}

// loadRun is the outcome of one open-loop run.
type loadRun struct {
	reqs        []request
	started     time.Time // zero of the samples' clock
	samples     []loopSample
	searchMS    []float64 // OK searches, due order, latency from due time
	writeMS     []float64
	lagMS       []float64
	okEnd       []time.Duration   // per request: End if OK, else -1
	precisions  map[int][]float64 // per distinct query
	shed        int
	hits, cold  int // X-Walrus-Cache hit / miss replies
	replyBytes  float64
	ackedWrites []string
}

// load runs n requests open-loop at rate per second from nproc
// goroutines and validates every reply into res.
func (h *serveHarness) load(res *result, base string, n int, rate float64) (*loadRun, error) {
	reqs, err := h.schedule(base, n)
	if err != nil {
		return nil, err
	}
	run := &loadRun{reqs: reqs, okEnd: make([]time.Duration, n), precisions: make(map[int][]float64)}
	interval := time.Duration(float64(time.Second) / rate)
	runtime.GC()
	run.started = time.Now()
	run.samples = runOpenLoop(n, interval, runtime.NumCPU(), wallClock{run.started}, func(i int) error { return h.send(&reqs[i]) })
	for i := range reqs {
		r, s := &reqs[i], run.samples[i]
		run.okEnd[i] = -1
		run.lagMS = append(run.lagMS, float64(s.lag().Nanoseconds())/1e6)
		if s.Err != nil {
			res.attempt(fmt.Sprintf("request %d: %v", i, s.Err))
			continue
		}
		if r.status == http.StatusTooManyRequests {
			run.shed++
		}
		ids, err := r.validate()
		if err != nil {
			res.attempt(fmt.Sprintf("request %d: %v", i, err))
			continue
		}
		res.attempt("")
		run.okEnd[i] = s.End
		ms := float64(s.latency().Nanoseconds()) / 1e6
		if r.write {
			run.writeMS = append(run.writeMS, ms)
			run.ackedWrites = append(run.ackedWrites, r.id)
			continue
		}
		run.searchMS = append(run.searchMS, ms)
		run.precisions[r.q] = append(run.precisions[r.q], precisionAt10(ids, r.cat))
		run.replyBytes += float64(len(r.reply))
		switch r.cache {
		case "hit":
			run.hits++
		case "miss":
			run.cold++
		}
	}
	return run, nil
}

// goodput is OK requests per second, as the median over the windows of
// the schedule: a window's span runs from its first due time to its last
// OK completion.
func (run *loadRun) goodput() windowed {
	w := windowed{Samples: len(run.reqs)}
	for _, b := range windowBounds(len(run.reqs), numWindows(len(run.reqs))) {
		ok, last := 0, time.Duration(0)
		for i := b[0]; i < b[1]; i++ {
			if run.okEnd[i] >= 0 {
				ok++
				last = max(last, run.okEnd[i])
			}
		}
		span := 0.0
		if b[1] > b[0] {
			span = (last - run.samples[b[0]].Due).Seconds()
		}
		w.Windows = append(w.Windows, ratio(float64(ok), span))
	}
	w.Value = median(mirrored(w.Windows))
	return w
}

// precision is precision@10 averaged over the distinct queries asked,
// each counted once however often the Zipf draw repeated it: weighting by
// traffic would let the two or three hottest queries decide the value.
func (run *loadRun) precision() (float64, int) {
	var perQuery []float64
	for _, ps := range run.precisions {
		perQuery = append(perQuery, mean(ps))
	}
	sort.Float64s(perQuery) // map order must not reach the float sum
	return mean(perQuery), len(perQuery)
}

// backlogGrows reports whether the generator fell further behind as the
// run went on: the mean lateness of the last quarter against the first.
func (run *loadRun) backlogGrows() bool {
	q := len(run.lagMS) / 4
	if q == 0 {
		return false
	}
	return mean(run.lagMS[len(run.lagMS)-q:]) > 2*mean(run.lagMS[:q])+1
}

// verifyAcked checks that every acknowledged ingest is readable.
func verifyAcked(res *result, backend *walrus.Sharded, ids []string) {
	res.attempt("")
	for _, id := range ids {
		if _, ok := backend.RegionsOf(id); !ok {
			res.attempt(fmt.Sprintf("acknowledged ingest %s is not in the database", id))
		}
	}
}

func runServe(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	opts := walrus.DefaultOptions()
	opts.Shards = 2
	opts.CacheSize = 256
	cp := corpus{seed: cfg.Seed, stream: 3, sizes: paperSizes}
	var err error
	if res.CorpusHash, err = cp.hash(); err != nil {
		return nil, err
	}

	// Set-up: build the fleet, preload it in streamed batches, start the
	// server on a loopback port.
	build := func() (serveState, time.Duration, error) {
		var st serveState
		var sw stopwatch
		if err := sw.time(func() (err error) { st.backend, err = walrus.NewSharded(opts); return err }); err != nil {
			return st, 0, err
		}
		err := cp.eachBatch(serveCorpus, func(_ int, items []item) error {
			batch := batchItems(items)
			return sw.time(func() error { return st.backend.AddBatch(batch, 0) })
		})
		if err != nil {
			return st, 0, err
		}
		err = sw.time(func() (err error) { st.srv, err = startServer(st.backend, nil); return err })
		return st, sw.total, err
	}
	st, setupS, err := setupMedian(cfg.setups(), build, serveState.discard)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = setupS
	h, err := newServeHarness(cp)
	if err != nil {
		return nil, errors.Join(err, st.discard())
	}
	rate := float64(opsPerSecond[cfg.Workload])
	if cfg.Trace {
		err = traceServe(cfg, res, st, h, opts, rate)
	} else {
		err = measureServe(cfg, res, st, h, rate)
	}
	h.client.CloseIdleConnections()
	return res, errors.Join(err, st.discard())
}

// measureServe is the untraced run: one open-loop phase at rate R.
func measureServe(cfg runConfig, res *result, st serveState, h *serveHarness, rate float64) error {
	phase := time.Now()
	run, err := h.load(res, st.srv.url, cfg.ops(), rate)
	if err != nil {
		return err
	}
	res.PhaseS = time.Since(phase).Seconds()
	res.Ops["measured"] = len(run.reqs)
	res.Ops["searches"] = len(run.searchMS)
	res.Ops["writes"] = len(run.writeMS)
	res.Metrics["heap_mb"] = heapMB(st.backend, st.srv)
	res.setWindowed("p50_ms", medianOfWindows(run.searchMS, p50))
	res.setWindowed("p95_ms", medianOfWindows(run.searchMS, p95))
	res.setWindowed("ops_per_s", run.goodput())
	res.Metrics["precision_at_10"], res.Samples["precision_at_10"] = run.precision()
	verifyAcked(res, st.backend, run.ackedWrites)
	return nil
}

// traceServe is the traced run. The same backend sits behind two
// servers: st.srv without instrumentation and a second one with the obs
// registry (and with it the server's live request tracing) attached.
func traceServe(cfg runConfig, res *result, st serveState, h *serveHarness, opts walrus.Options, rate float64) (err error) {
	rec := newRecorder()
	m := res.Metrics
	n := 2 * cfg.ops() / traceOpsShare // as many plain, then as many behind the instrumented server

	// The same mix from one connection with no concurrency: what a
	// request costs when nothing queues.
	idle, err := h.schedule(st.srv.url, 300)
	if err != nil {
		return err
	}
	var idleMS []float64
	for i := range idle {
		t := time.Now()
		err := h.send(&idle[i])
		ms := msSince(t)
		res.check(err, "unloaded request")
		if _, verr := idle[i].validate(); err == nil && verr == nil && !idle[i].write {
			idleMS = append(idleMS, ms)
		}
	}

	plain, err := h.load(res, st.srv.url, n, rate)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	tracedSrv, err := startServer(st.backend, reg)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, tracedSrv.stop()) }()
	st.backend.SetMetrics(reg)
	before := st.backend.VersionVector()
	traced, err := h.load(res, tracedSrv.url, n, rate)
	if err != nil {
		return err
	}
	after := st.backend.VersionVector()
	st.backend.SetMetrics(nil)
	runStart := traced.started.Sub(rec.t0)
	for i, s := range traced.samples {
		name := "serve.search"
		if traced.reqs[i].write {
			name = "serve.ingest"
		}
		// Client-observed spans, from due time to reply.
		rec.spans = append(rec.spans, span{ID: len(rec.spans) + 1, Trace: i + 1, Name: name,
			StartNS: int64(runStart + s.Due), EndNS: int64(runStart + s.End), Count: len(traced.reqs[i].reply)})
	}
	versions := 0.0
	for i := range after {
		versions += float64(after[i] - before[i])
	}
	verifyAcked(res, st.backend, append(plain.ackedWrites, traced.ackedWrites...))
	m["walrus.cache_hit_ratio"] = ratio(float64(traced.hits), float64(traced.hits+traced.cold))
	m["serve.shed_fraction"] = ratio(float64(traced.shed), float64(len(traced.reqs)))
	m["serve.writes_per_version"] = ratio(float64(len(traced.ackedWrites)), versions)
	m["serve.gen_lag_p95_ms"] = percentileOf(traced.lagMS, 95)
	m["serve.response_bytes_per_search"] = ratio(traced.replyBytes, float64(len(traced.searchMS)))
	m["serve.write_p50_ms"] = percentileOf(traced.writeMS, 50)
	m["serve.write_p95_ms"] = percentileOf(traced.writeMS, 95)
	m["serve.load_inflation"] = ratio(median(plain.searchMS), median(idleMS))
	m["bench.trace_overhead_pct"] = 100 * (ratio(median(traced.searchMS), median(plain.searchMS)) - 1)
	res.Samples["traced_ops"] = len(traced.reqs)

	// Layer by layer on the distinct queries, cache bypassed: the request
	// over the wire, the handler alone, the decode alone, and the engine
	// call with extraction replayed under it.
	lp, err := newLayerProbe(rec, opts)
	if err != nil {
		return err
	}
	p := queryParams()
	p.NoCache = true
	single, err := walrus.New(walrus.DefaultOptions())
	if err != nil {
		return err
	}
	err = h.cp.eachBatch(serveCorpus, func(_ int, items []item) error { return single.AddBatch(batchItems(items), 0) })
	if err != nil {
		return err
	}
	var oneMS, twoMS []float64
	target := fmt.Sprintf("/v1/search?k=%d&nocache=1", queryLimit)
	for q := 0; q < 128; q++ {
		body := h.queries[q].body
		trace := len(traced.samples) + q + 1
		wire := request{url: st.srv.url + target, body: body}
		var serr error
		rec.measure("serve.client", 0, trace, func() { serr = h.send(&wire) })
		res.check(serr, "wire request")
		w := httptest.NewRecorder()
		hs, _ := rec.measure("serve.handler", 0, trace, func() {
			st.srv.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		})
		if w.Code != http.StatusOK {
			res.attempt(fmt.Sprintf("handler replay: status %d", w.Code))
			continue
		}
		var im *imgio.Image
		var derr error
		rec.measure("imgio.decode_ppm", 0, trace, func() { im, derr = imgio.DecodePPM(bytes.NewReader(body)) })
		if derr != nil {
			return derr
		}
		var qerr error
		t := time.Now()
		qs, _ := rec.measure("walrus.query", hs, trace, func() { _, _, qerr = st.backend.QueryContext(context.Background(), im, p) })
		twoMS = append(twoMS, msSince(t))
		if qerr != nil {
			return qerr
		}
		if _, err := lp.extract(im, qs, trace); err != nil {
			return err
		}
		t = time.Now()
		_, _, qerr = single.QueryContext(context.Background(), im, p)
		oneMS = append(oneMS, msSince(t))
		if qerr != nil {
			return qerr
		}
	}
	sp := rec.spans
	lp.extractionMetrics(m)
	m["imgio.decode_ppm_us"] = median(durationsUS(sp, "imgio.decode_ppm"))
	m["walrus.query_us"] = median(durationsUS(sp, "walrus.query"))
	m["serve.handler_us"] = median(durationsUS(sp, "serve.handler"))
	m["serve.overhead_us"] = median(selfUS(sp, "serve.handler"))
	m["serve.transport_us"] = median(durationsUS(sp, "serve.client")) - m["serve.handler_us"]
	m["shard.query_ratio_2v1"] = ratio(median(twoMS), median(oneMS))

	// The highest of five geometric rates (283 to 1131 req/s) that keeps
	// search p95 inside the limit without shedding or a growing backlog.
	best := 0.0
	for k := 0; k < rateStepRuns; k++ {
		r := rateStepBase * math.Pow(2, float64(k-1)/2)
		run, err := h.load(res, st.srv.url, int(r*1.5), r)
		if err != nil {
			return err
		}
		ok := run.shed == 0 && !run.backlogGrows() &&
			percentileOf(run.searchMS, 95) <= float64(sloP95.Milliseconds())
		if ok && r > best {
			best = r
		}
		verifyAcked(res, st.backend, run.ackedWrites)
	}
	m["serve.max_rate_in_slo_rps"] = best
	return rec.write(cfg.tracePath())
}
