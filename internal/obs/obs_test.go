package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// httpGet fetches url and returns its body.
func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// TestNilRegistryIsInert: every operation on a nil registry and the nil
// handles it returns must be a no-op — the disabled fast path.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("walrus_test_total", "h")
	g := r.Gauge("walrus_test", "h")
	h := r.Histogram("walrus_test_seconds", "h", nil)
	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Add(-2)
	h.Observe(0.1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles accumulated state")
	}
	sp := r.StartSpan("query")
	sp.SetAttr("n", 1)
	child := sp.Child("probe")
	child.End()
	if d := sp.End(); d != 0 {
		t.Errorf("nil span measured %v", d)
	}
	if id := r.RecordSpan("x", 0, time.Time{}, 0); id != 0 {
		t.Errorf("nil RecordSpan returned id %d", id)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil snapshot is not empty")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if err := r.WriteJSON(io.Discard); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("walrus_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("walrus_ops_total", "ops"); c2 != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("walrus_depth", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	h := r.Histogram("walrus_op_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 5.555; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["walrus_op_seconds"]
	wantCounts := []uint64{1, 1, 1, 1}
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, hs.Counts[i], w)
		}
	}
}

func TestMetricKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("walrus_thing", "h")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("walrus_thing", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	r.Counter("walrus-bad-name", "h")
}

func TestSpanRingBounded(t *testing.T) {
	r := NewRegistry()
	const n = defaultSpanRing + 50
	for i := 0; i < n; i++ {
		sp := r.StartSpan("op")
		sp.SetAttr("i", int64(i))
		sp.End()
	}
	spans, dropped := r.Tracer().Spans()
	if len(spans) != defaultSpanRing {
		t.Errorf("ring holds %d spans, want %d", len(spans), defaultSpanRing)
	}
	if dropped != 50 {
		t.Errorf("dropped = %d, want 50", dropped)
	}
	// Oldest-first: the first surviving span is the 51st started.
	if got := spans[0].Attrs[0].Value; got != 50 {
		t.Errorf("oldest surviving span attr = %d, want 50", got)
	}
	last := spans[len(spans)-1]
	if last.Attrs[0].Value != n-1 {
		t.Errorf("newest span attr = %d, want %d", last.Attrs[0].Value, n-1)
	}
}

func TestSpanParentLinks(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("query")
	child := root.Child("probe")
	child.End()
	root.End()
	id := r.RecordSpan("score", root.ID(), Clock(), time.Millisecond, Attr{Key: "candidates", Value: 3})
	if id == 0 {
		t.Fatal("RecordSpan returned 0")
	}
	spans, _ := r.Tracer().Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["probe"].Parent != byName["query"].ID {
		t.Error("child span not linked to parent")
	}
	if byName["score"].Parent != byName["query"].ID {
		t.Error("recorded span not linked to parent")
	}
}

func TestPrometheusOutputValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("walrus_ops_total", "total ops").Add(3)
	r.Gauge("walrus_depth", "queue depth").Set(-2)
	h := r.Histogram("walrus_op_seconds", "op latency", nil)
	h.Observe(0.0002)
	h.Observe(42) // lands in +Inf
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE walrus_ops_total counter",
		"walrus_ops_total 3",
		"walrus_depth -2",
		`walrus_op_seconds_bucket{le="+Inf"} 2`,
		"walrus_op_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Errorf("ValidatePrometheus rejected own output: %v\n%s", err, out)
	}
}

func TestValidatePrometheusRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad value":         "# TYPE x counter\nx notanumber\n",
		"no TYPE":           "lonely_sample 3\n",
		"bad name":          "# TYPE 9bad counter\n9bad 1\n",
		"non-cumulative":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing inf":       "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"count != inf":      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
		"unsupported label": "# TYPE x counter\nx{job=\"a\"} 1\n",
	}
	for name, in := range cases {
		if err := ValidatePrometheus([]byte(in)); err == nil {
			t.Errorf("%s: validator accepted %q", name, in)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("walrus_ops_total", "h").Add(7)
	r.Histogram("walrus_op_seconds", "h", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if got := out["walrus_ops_total"]; got != float64(7) {
		t.Errorf("walrus_ops_total = %v, want 7", got)
	}
	hist, ok := out["walrus_op_seconds"].(map[string]any)
	if !ok || hist["count"] != float64(1) {
		t.Errorf("histogram JSON = %v", out["walrus_op_seconds"])
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("walrus_ops_total", "h").Inc()
	r.StartSpan("op").End()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "walrus_ops_total 1") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	}
	var spans map[string]any
	if err := json.Unmarshal([]byte(get("/debug/walrus/spans")), &spans); err != nil {
		t.Errorf("/debug/walrus/spans is not JSON: %v", err)
	}
	if n := len(spans["spans"].([]any)); n != 1 {
		t.Errorf("span endpoint returned %d spans, want 1", n)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline endpoint is empty")
	}
}

// TestConcurrentUse hammers one registry from many goroutines while a
// reader snapshots and re-renders it; run under -race in the race tier.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("walrus_ops_total", "h")
	g := r.Gauge("walrus_depth", "h")
	h := r.Histogram("walrus_op_seconds", "h", nil)
	var wg sync.WaitGroup
	const workers, iters = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i) / 1000)
				sp := r.StartSpan("op")
				sp.SetAttr("w", int64(w))
				sp.End()
				// Interleave registration with updates.
				r.Counter("walrus_other_total", "h").Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus during load: %v", err)
				return
			}
			if err := ValidatePrometheus(buf.Bytes()); err != nil {
				t.Errorf("invalid exposition during load: %v", err)
				return
			}
			r.Tracer().Spans()
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
}

// TestHistogramSnapshotConsistent: a snapshot racing observations is
// self-consistent — its count is exactly the sum of its buckets, so the
// exposition's +Inf bucket never runs ahead of _count. Run under -race in
// the obs tier.
func TestHistogramSnapshotConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("walrus_op_seconds", "h", []float64{0.001, 0.01})
	const workers, iters = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h.Observe(float64(i%3) * 0.005)
			}
		}()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot().Histograms["walrus_op_seconds"]
			var sum uint64
			for _, c := range s.Counts {
				sum += c
			}
			if sum != s.Count {
				t.Errorf("snapshot buckets sum to %d, count says %d", sum, s.Count)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if got := h.Count(); got != workers*iters {
		t.Fatalf("count = %d, want %d", got, workers*iters)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("walrus_ops_total", "h").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := httpGet("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "walrus_ops_total 1") {
		t.Errorf("served metrics missing counter:\n%s", resp)
	}
}
