package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"walrus"
	"walrus/internal/obs"
)

// explainSchema flattens a decoded JSON value into sorted key paths
// (arrays contribute their first element under a "[]" segment), so the
// golden file pins the wire shape of the explain payload without pinning
// run-dependent values.
func explainSchema(v any) []string {
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				walk(prefix+"."+k, child)
			}
		case []any:
			if len(x) > 0 {
				walk(prefix+"[]", x[0])
			} else {
				paths = append(paths, prefix+"[]")
			}
		default:
			paths = append(paths, prefix)
		}
	}
	walk("explain", v)
	sort.Strings(paths)
	return paths
}

// TestExplainSchemaGolden pins the JSON schema of /v1/search?explain=1
// against testdata/explain_schema.golden: the flattened key paths of the
// explain object plus the stage sequences of a full run and of a cached
// answer brought forward by a delta after an ingest. A field rename or
// reorder is an API break for every client parsing EXPLAIN output —
// regenerate the golden deliberately with WALRUS_UPDATE_GOLDEN=1 when
// the schema is meant to change.
func TestExplainSchemaGolden(t *testing.T) {
	reg := obs.NewRegistry()
	db, err := walrus.New(testOptions())
	if err != nil {
		t.Fatalf("creating db: %v", err)
	}
	db.SetCacheSize(4)
	s := newTestServer(t, Config{Metrics: reg, Backend: db})
	for i := 0; i < 3; i++ {
		w := do(s, "POST", fmt.Sprintf("/v1/images?id=img-%d", i), "image/x-portable-pixmap", testPPM(t, i))
		if w.Code != http.StatusCreated {
			t.Fatalf("ingest img-%d: got %d: %s", i, w.Code, w.Body.String())
		}
	}
	// refine=1 forces the optional stage, and the cached
	// backend adds the cache row, so the golden covers every stage an
	// unsharded query can emit.
	w := do(s, "POST", "/v1/search?explain=1&refine=1&k=5", "image/x-portable-pixmap", testPPM(t, 0))
	if w.Code != http.StatusOK {
		t.Fatalf("search: got %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Walrus-Trace"); got == "" {
		t.Fatal("explained search response missing X-Walrus-Trace header")
	}
	if got := w.Header().Get("X-Walrus-Cache"); got != "miss" {
		t.Fatalf("first search X-Walrus-Cache = %q, want \"miss\"", got)
	}
	var resp map[string]any
	decodeBody(t, w, &resp)
	explain, ok := resp["explain"].(map[string]any)
	if !ok {
		t.Fatalf("response has no explain object: %v", resp)
	}

	var b strings.Builder
	b.WriteString("# Flattened JSON schema of the /v1/search?explain=1 payload.\n")
	b.WriteString("# Regenerate with WALRUS_UPDATE_GOLDEN=1 go test -run TestExplainSchemaGolden ./internal/serve\n")
	for _, p := range explainSchema(explain) {
		b.WriteString(p)
		b.WriteString("\n")
	}
	writeStages(&b, "stages:", explain)

	// The identical query repeats against an unchanged database: served
	// from the result cache, reported in the response header.
	w2 := do(s, "POST", "/v1/search?explain=1&refine=1&k=5", "image/x-portable-pixmap", testPPM(t, 0))
	if w2.Code != http.StatusOK {
		t.Fatalf("repeat search: got %d: %s", w2.Code, w2.Body.String())
	}
	if got := w2.Header().Get("X-Walrus-Cache"); got != "hit" {
		t.Fatalf("repeat search X-Walrus-Cache = %q, want \"hit\"", got)
	}
	if w.Body.String() == "" || w2.Body.String() == "" {
		t.Fatal("empty search response body")
	}

	// After an ingest the cached answer is brought forward: the delta
	// row replaces extract and probe, and the cached matches enter a
	// merge.
	if w := do(s, "POST", "/v1/images?id=img-3", "image/x-portable-pixmap", testPPM(t, 3)); w.Code != http.StatusCreated {
		t.Fatalf("ingest img-3: got %d: %s", w.Code, w.Body.String())
	}
	w3 := do(s, "POST", "/v1/search?explain=1&refine=1&k=5", "image/x-portable-pixmap", testPPM(t, 0))
	if w3.Code != http.StatusOK {
		t.Fatalf("search after ingest: got %d: %s", w3.Code, w3.Body.String())
	}
	if got := w3.Header().Get("X-Walrus-Cache"); got != "delta" {
		t.Fatalf("search after ingest X-Walrus-Cache = %q, want \"delta\"", got)
	}
	var resp3 map[string]any
	decodeBody(t, w3, &resp3)
	explain3, ok := resp3["explain"].(map[string]any)
	if !ok {
		t.Fatalf("delta response has no explain object: %v", resp3)
	}
	writeStages(&b, "delta stages:", explain3)
	got := b.String()

	golden := filepath.Join("testdata", "explain_schema.golden")
	if os.Getenv("WALRUS_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with WALRUS_UPDATE_GOLDEN=1 to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("explain schema drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}

	// The trace the header names is fetchable and non-empty.
	tw := do(s, "GET", "/v1/trace/"+w.Header().Get("X-Walrus-Trace"), "", nil)
	if tw.Code != http.StatusOK {
		t.Fatalf("GET /v1/trace: got %d: %s", tw.Code, tw.Body.String())
	}
	var trace struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	decodeBody(t, tw, &trace)
	if len(trace.Spans) == 0 {
		t.Fatal("trace endpoint returned no spans for the explained query")
	}
}

// writeStages writes one golden line: label, then the stage names of an
// explain object in order.
func writeStages(b *strings.Builder, label string, explain map[string]any) {
	b.WriteString(label)
	stages, _ := explain["stages"].([]any)
	for _, st := range stages {
		m, _ := st.(map[string]any)
		b.WriteString(" ")
		b.WriteString(fmt.Sprint(m["stage"]))
	}
	b.WriteString("\n")
}
