package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"walrus"
	"walrus/internal/imgio"
	"walrus/internal/obs"
)

// testOptions keeps extraction trivial: 32×32 images under a fixed
// 32×32 window yield one region per image.
func testOptions() walrus.Options {
	o := walrus.DefaultOptions()
	o.Region.MaxWindow = 32
	o.Region.MinWindow = 32
	o.Region.Step = 32
	return o
}

// testImage synthesizes a distinct 32×32 image for seed i.
func testImage(i int) *imgio.Image {
	im := imgio.New(32, 32, 3)
	seed := uint32(i+1) * 2654435761
	for c := 0; c < 3; c++ {
		base := 0.75 * float64((seed>>(8*uint(c)))&0xff) / 255
		plane := im.Plane(c)
		for p := range plane {
			plane[p] = base + 0.2*float64(p%7)/6
		}
	}
	return im
}

func testPPM(t *testing.T, i int) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := imgio.EncodePPM(&b, testImage(i)); err != nil {
		t.Fatalf("encoding PPM: %v", err)
	}
	return b.Bytes()
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Backend == nil {
		db, err := walrus.New(testOptions())
		if err != nil {
			t.Fatalf("creating db: %v", err)
		}
		cfg.Backend = db
	}
	if cfg.CoalesceMaxWait == 0 {
		cfg.CoalesceMaxWait = time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("creating server: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

// do runs one request through the handler and returns the recorder.
func do(s *Server, method, target, contentType string, body []byte) *httptest.ResponseRecorder {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeBody(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
}

func TestServeIngestSearchDelete(t *testing.T) {
	s := newTestServer(t, Config{})

	// Raw PPM ingest.
	if w := do(s, "POST", "/v1/images?id=img-0", "image/x-portable-pixmap", testPPM(t, 0)); w.Code != http.StatusCreated {
		t.Fatalf("ingest img-0: got %d, want 201: %s", w.Code, w.Body.String())
	}
	// Duplicate id is a conflict.
	if w := do(s, "POST", "/v1/images?id=img-0", "", testPPM(t, 0)); w.Code != http.StatusConflict {
		t.Fatalf("duplicate ingest: got %d, want 409: %s", w.Code, w.Body.String())
	}
	// Missing id is a bad request.
	if w := do(s, "POST", "/v1/images", "", testPPM(t, 1)); w.Code != http.StatusBadRequest {
		t.Fatalf("ingest without id: got %d, want 400", w.Code)
	}

	// JSON batch ingest.
	var payload ingestPayload
	for i := 1; i < 4; i++ {
		payload.Images = append(payload.Images, struct {
			ID  string `json:"id"`
			PPM []byte `json:"ppm"`
		}{ID: fmt.Sprintf("img-%d", i), PPM: testPPM(t, i)})
	}
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatalf("marshaling batch: %v", err)
	}
	w := do(s, "POST", "/v1/images", "application/json", body)
	if w.Code != http.StatusCreated {
		t.Fatalf("batch ingest: got %d, want 201: %s", w.Code, w.Body.String())
	}
	var added struct {
		Added int `json:"added"`
	}
	decodeBody(t, w, &added)
	if added.Added != 3 {
		t.Fatalf("batch ingest: added %d, want 3", added.Added)
	}

	// Search by posted body finds the identical image with similarity 1.
	w = do(s, "POST", "/v1/search?k=2", "", testPPM(t, 2))
	if w.Code != http.StatusOK {
		t.Fatalf("search by body: got %d: %s", w.Code, w.Body.String())
	}
	var sr searchResponse
	decodeBody(t, w, &sr)
	if len(sr.Matches) == 0 || sr.Matches[0].ID != "img-2" || sr.Matches[0].Similarity < 0.999 {
		t.Fatalf("search by body: got %+v, want img-2 at similarity 1", sr.Matches)
	}
	if len(sr.Matches) > 2 {
		t.Fatalf("k=2 returned %d matches", len(sr.Matches))
	}

	// Search by indexed id.
	w = do(s, "GET", "/v1/search?id=img-1&k=1", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("search by id: got %d: %s", w.Code, w.Body.String())
	}
	decodeBody(t, w, &sr)
	if len(sr.Matches) != 1 || sr.Matches[0].ID != "img-1" {
		t.Fatalf("search by id: got %+v, want img-1 first", sr.Matches)
	}

	// Unknown id is 404; malformed params are 400.
	if w := do(s, "GET", "/v1/search?id=nope", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("search unknown id: got %d, want 404", w.Code)
	}
	if w := do(s, "GET", "/v1/search?id=img-1&k=-3", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("search bad k: got %d, want 400", w.Code)
	}
	if w := do(s, "GET", "/v1/search?id=img-1&epsilon=bogus", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("search bad epsilon: got %d, want 400", w.Code)
	}
	if w := do(s, "GET", "/v1/search?id=img-1&region=1,2,3,4", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("search id+region: got %d, want 400", w.Code)
	}
	if w := do(s, "GET", "/v1/search", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("GET search without id: got %d, want 400", w.Code)
	}

	// Scene search with an explicit region.
	if w := do(s, "POST", "/v1/search?region=0,0,32,32", "", testPPM(t, 3)); w.Code != http.StatusOK {
		t.Fatalf("scene search: got %d: %s", w.Code, w.Body.String())
	}

	// Delete, then the id is gone.
	if w := do(s, "DELETE", "/v1/images/img-3", "", nil); w.Code != http.StatusOK {
		t.Fatalf("delete: got %d: %s", w.Code, w.Body.String())
	}
	if w := do(s, "DELETE", "/v1/images/img-3", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("delete twice: got %d, want 404", w.Code)
	}
	if w := do(s, "GET", "/v1/search?id=img-3", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("search deleted id: got %d, want 404", w.Code)
	}
}

func TestServeStatsAndHealth(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Metrics: reg})
	if w := do(s, "POST", "/v1/images?id=a", "", testPPM(t, 0)); w.Code != http.StatusCreated {
		t.Fatalf("ingest: got %d: %s", w.Code, w.Body.String())
	}

	w := do(s, "GET", "/v1/stats", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: got %d", w.Code)
	}
	var st statsResponse
	decodeBody(t, w, &st)
	if st.Images != 1 || st.Regions != 1 || st.Sharded || st.Version == 0 || st.Draining {
		t.Fatalf("stats: got %+v", st)
	}

	if w := do(s, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz: got %d", w.Code)
	}
	if w := do(s, "GET", "/readyz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("readyz: got %d", w.Code)
	}
	w = do(s, "GET", "/metrics", "", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "walrus_serve_ingest_requests_total") {
		t.Fatalf("metrics: got %d, body missing serve counters", w.Code)
	}
}

func TestServeShardedBackend(t *testing.T) {
	opts := testOptions()
	opts.Shards = 4
	sh, err := walrus.NewSharded(opts)
	if err != nil {
		t.Fatalf("creating sharded db: %v", err)
	}
	s := newTestServer(t, Config{Backend: sh})

	for i := 0; i < 8; i++ {
		if w := do(s, "POST", fmt.Sprintf("/v1/images?id=img-%d", i), "", testPPM(t, i)); w.Code != http.StatusCreated {
			t.Fatalf("ingest img-%d: got %d: %s", i, w.Code, w.Body.String())
		}
	}
	w := do(s, "GET", "/v1/search?id=img-5&k=1", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sharded search: got %d: %s", w.Code, w.Body.String())
	}
	var sr searchResponse
	decodeBody(t, w, &sr)
	if len(sr.Matches) != 1 || sr.Matches[0].ID != "img-5" {
		t.Fatalf("sharded search: got %+v, want img-5", sr.Matches)
	}

	w = do(s, "GET", "/v1/stats", "", nil)
	var st statsResponse
	decodeBody(t, w, &st)
	if !st.Sharded || st.Shards != 4 || st.Images != 8 || len(st.VersionVector) != 4 {
		t.Fatalf("sharded stats: got %+v", st)
	}
}

// TestServeAdmissionSaturation fills the one admission slot and the
// one-deep wait queue with ingests parked in a slow coalescer window,
// then shows the next request is shed with 429 + Retry-After and that
// the queue and active gauges drain back to zero afterwards.
func TestServeAdmissionSaturation(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		Metrics:              reg,
		MaxConcurrentQueries: 1,
		QueueLimit:           1,
		CoalesceMaxBatch:     64,
		CoalesceMaxWait:      300 * time.Millisecond, // parks ingests long enough to observe saturation
	})

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		body := testPPM(t, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = do(s, "POST", fmt.Sprintf("/v1/images?id=slow-%d", i), "", body).Code
		}(i)
	}
	// Wait until the slot is held and the queue is occupied.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.running() != 1 || s.adm.depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("saturation not reached: running=%d depth=%d", s.adm.running(), s.adm.depth())
		}
		time.Sleep(time.Millisecond)
	}

	w := do(s, "POST", "/v1/images?id=shed", "", testPPM(t, 9))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: got %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("429 response missing Retry-After")
	}
	if got := s.m.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	wg.Wait()
	for i, code := range codes {
		if code != http.StatusCreated {
			t.Fatalf("parked ingest %d: got %d, want 201", i, code)
		}
	}
	if s.adm.running() != 0 || s.adm.depth() != 0 {
		t.Fatalf("after drain-out: running=%d depth=%d, want 0/0", s.adm.running(), s.adm.depth())
	}
	if g := s.m.queueDepth.Value(); g != 0 {
		t.Fatalf("queue depth gauge = %d, want 0", g)
	}
	if g := s.m.active.Value(); g != 0 {
		t.Fatalf("active gauge = %d, want 0", g)
	}
}

// TestServeCoalescerVersionAtomicity fires N concurrent single-image
// POSTs and asserts they land in far fewer published catalog versions
// than N: the coalescer batches them into whole AddBatch flushes.
func TestServeCoalescerVersionAtomicity(t *testing.T) {
	db, err := walrus.New(testOptions())
	if err != nil {
		t.Fatalf("creating db: %v", err)
	}
	const n = 32
	s := newTestServer(t, Config{
		Backend: db,
		Metrics: obs.NewRegistry(),
		// Admit every writer at once so all n POSTs can park in the same
		// coalescing window.
		MaxConcurrentQueries: n,
		QueueLimit:           n,
		CoalesceMaxBatch:     2 * n,
		CoalesceMaxWait:      200 * time.Millisecond,
	})

	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = testPPM(t, i)
	}
	v0 := db.Version()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if w := do(s, "POST", fmt.Sprintf("/v1/images?id=img-%d", i), "", bodies[i]); w.Code != http.StatusCreated {
				t.Errorf("ingest img-%d: got %d: %s", i, w.Code, w.Body.String())
			}
		}(i)
	}
	wg.Wait()

	if got := db.Len(); got != n {
		t.Fatalf("indexed %d images, want %d", got, n)
	}
	versions := db.Version() - v0
	if versions == 0 || versions > n/4 {
		t.Fatalf("%d concurrent POSTs published %d versions, want 1..%d (coalescing broken)", n, versions, n/4)
	}
	if flushes := s.m.coalesceFlushes.Value(); flushes != versions {
		t.Fatalf("flushes=%d but versions advanced by %d: a flush must publish exactly one version", flushes, versions)
	}
}

// TestServeGracefulDrain hammers a live listener with concurrent
// writers, drains mid-stream, and proves every write acknowledged with
// 201 is present — and durable — after the drain: the database reopens
// from disk holding each acked id.
func TestServeGracefulDrain(t *testing.T) {
	testGracefulDrain(t,
		func(t *testing.T, dir string) Backend {
			db, err := walrus.Create(dir, testOptions())
			if err != nil {
				t.Fatalf("creating db: %v", err)
			}
			return db
		},
		func(t *testing.T, dir string) Backend {
			db, err := walrus.Open(dir)
			if err != nil {
				t.Fatalf("reopening after drain: %v", err)
			}
			return db
		})
}

// TestServeGracefulDrainSharded runs the same acked-write-survives-drain
// proof over the sharded backend: coalesced batches fan out across
// shards, and the drain must still flush every shard's WAL before the
// server reports drained.
func TestServeGracefulDrainSharded(t *testing.T) {
	shardedOptions := func() walrus.Options {
		o := testOptions()
		o.Shards = 4
		return o
	}
	testGracefulDrain(t,
		func(t *testing.T, dir string) Backend {
			db, err := walrus.CreateSharded(dir, shardedOptions())
			if err != nil {
				t.Fatalf("creating sharded db: %v", err)
			}
			return db
		},
		func(t *testing.T, dir string) Backend {
			db, err := walrus.OpenSharded(dir)
			if err != nil {
				t.Fatalf("reopening sharded db after drain: %v", err)
			}
			return db
		})
}

// testGracefulDrain is the shared drain scenario, parameterized over the
// durable backend: create builds a fresh store in dir and reopen loads
// it back from disk after the drain.
func testGracefulDrain(t *testing.T, create, reopen func(t *testing.T, dir string) Backend) {
	t.Helper()
	dir := t.TempDir()
	s, err := New(Config{
		Backend:         create(t, dir),
		CoalesceMaxWait: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("creating server: %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listening: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	const writers = 8
	var (
		mu    sync.Mutex
		acked []string
	)
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		body := testPPM(t, wi) // shared pixel content; only ids must be unique
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				id := fmt.Sprintf("w%d-%d", wi, seq)
				resp, err := client.Post(base+"/v1/images?id="+id, "image/x-portable-pixmap",
					bytes.NewReader(body))
				if err != nil {
					return // connection refused after drain
				}
				_, copyErr := io.Copy(io.Discard, resp.Body)
				closeErr := resp.Body.Close()
				if copyErr != nil || closeErr != nil {
					t.Errorf("writer %d: draining response: copy=%v close=%v", wi, copyErr, closeErr)
					return
				}
				if resp.StatusCode != http.StatusCreated {
					return // draining (503) or shed: unacknowledged, may or may not exist
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}(wi)
	}

	// Let the writers build up in-flight traffic, then drain under them.
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 20 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Every acknowledged write survived the drain, durably.
	reopened := reopen(t, dir)
	defer func() {
		if err := reopened.Close(); err != nil {
			t.Errorf("closing reopened db: %v", err)
		}
	}()
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged before the drain")
	}
	for _, id := range acked {
		if _, ok := reopened.RegionsOf(id); !ok {
			t.Fatalf("acknowledged write %q lost across drain (%d acked total)", id, len(acked))
		}
	}
	// And the server refuses new work after draining.
	if w := do(s, "POST", "/v1/images?id=late", "", testPPM(t, 0)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain ingest: got %d, want 503", w.Code)
	}
	if w := do(s, "GET", "/readyz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz: got %d, want 503", w.Code)
	}
}

// TestServeDrainBeforeServe is the regression test for a Drain that runs
// before Serve has published its http.Server: Drain found nothing to shut
// down and the accept loop then ran forever. Serve must notice the drain
// and return, closing the listener.
func TestServeDrainBeforeServe(t *testing.T) {
	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listening: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve kept accepting after a Drain that preceded it")
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after Serve returned")
	}
}

// TestServeDrainRacesServe starts Serve and Drain together, many times:
// whichever side publishes first, Serve must return nil promptly. Run
// under -race it also checks the hs/draining handshake.
func TestServeDrainRacesServe(t *testing.T) {
	for i := 0; i < 50; i++ {
		db, err := walrus.New(testOptions())
		if err != nil {
			t.Fatalf("creating db: %v", err)
		}
		s, err := New(Config{Backend: db, CoalesceMaxWait: time.Millisecond})
		if err != nil {
			t.Fatalf("creating server: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listening: %v", err)
		}
		serveErr := make(chan error, 1)
		drainErr := make(chan error, 1)
		go func() { serveErr <- s.Serve(ln) }()
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drainErr <- s.Drain(ctx)
		}()
		for _, ch := range []chan error{drainErr, serveErr} {
			select {
			case err := <-ch:
				if err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: Serve or Drain hung", i)
			}
		}
	}
}

// TestServeDeadlinePropagation gives requests a microscopic deadline
// and shows the pipeline surfaces it as 503 rather than hanging.
func TestServeDeadlinePropagation(t *testing.T) {
	db, err := walrus.New(testOptions())
	if err != nil {
		t.Fatalf("creating db: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := db.Add(fmt.Sprintf("img-%d", i), testImage(i)); err != nil {
			t.Fatalf("seeding: %v", err)
		}
	}
	s := newTestServer(t, Config{Backend: db, RequestTimeout: time.Nanosecond})
	w := do(s, "GET", "/v1/search?id=img-0", "", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: got %d, want 503: %s", w.Code, w.Body.String())
	}
	if g := s.m.active.Value(); g != 0 {
		t.Fatalf("active gauge = %d after deadline drop, want 0", g)
	}
}
