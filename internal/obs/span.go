package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute attached to a span (counts, sizes —
// quantities, not labels, so the value is numeric).
type Attr struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// SpanRecord is one completed span as stored in the tracer ring.
type SpanRecord struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Trace    uint64        `json:"trace,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Tracer records completed spans into a bounded ring: once full, new
// spans overwrite the oldest, the Dropped counter advances, and — when
// the tracer belongs to a registry — the walrus_obs_spans_dropped_total
// counter advances with it, so the observer's own losses are observable.
// Safe for concurrent use; all methods are no-ops on a nil receiver.
type Tracer struct {
	seq      atomic.Uint64
	traceSeq atomic.Uint64
	dropped  atomic.Uint64
	droppedC *Counter // registry mirror of dropped; nil outside a registry

	mu   sync.Mutex
	ring []SpanRecord // guarded by mu
	next int          // guarded by mu
	full bool         // guarded by mu
}

func newTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanRecord, 0, capacity)}
}

// Span is one in-flight operation. Obtain one with Registry.StartSpan or
// Span.Child; a nil Span (from a nil registry/tracer) never reads the
// clock and ignores every method call.
type Span struct {
	tracer *Tracer
	rec    SpanRecord
}

// StartSpan begins a root span under a fresh trace id (nil on a nil
// registry). Children created with Child inherit the trace, so the whole
// tree of one request shares one id — the value surfaced in the
// X-Walrus-Trace response header and fetched back via TraceSpans.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	t := r.tracer
	return t.start(name, 0, t.traceSeq.Add(1))
}

func (t *Tracer) start(name string, parent, trace uint64) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tracer: t,
		rec: SpanRecord{
			ID:     t.seq.Add(1),
			Parent: parent,
			Trace:  trace,
			Name:   name,
			Start:  Clock(),
		},
	}
}

// Child begins a span parented to s, inheriting s's trace id (nil when s
// is nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(name, s.rec.ID, s.rec.Trace)
}

// TraceID returns the span's trace id (0 for a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.Trace
}

// SetAttr attaches a numeric attribute to the span.
func (s *Span) SetAttr(key string, value int64) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

// End completes the span, records it into the ring, and returns its
// duration (0 for a nil span).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.rec.Duration = Since(s.rec.Start)
	s.tracer.record(s.rec)
	return s.rec.Duration
}

// RecordSpan inserts an already-measured span — the retroactive API used
// when phase timings are captured anyway (QueryStats) and re-reading the
// clock would double the cost. It returns the new span's id so children
// can reference it (0 on a nil registry).
func (r *Registry) RecordSpan(name string, parent uint64, start time.Time, d time.Duration, attrs ...Attr) uint64 {
	if r == nil {
		return 0
	}
	rec := SpanRecord{
		ID:       r.tracer.seq.Add(1),
		Parent:   parent,
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	}
	r.tracer.record(rec)
	return rec.ID
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full && len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
		if len(t.ring) == cap(t.ring) {
			t.full = true
			t.next = 0
		}
		return
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	t.dropped.Add(1)
	t.droppedC.Inc()
}

// Spans returns the completed spans oldest-first plus the number of
// spans that have been overwritten by ring wraparound. Empty on a nil
// receiver.
func (t *Tracer) Spans() (spans []SpanRecord, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		spans = append(spans, t.ring...)
	} else {
		spans = append(spans, t.ring[t.next:]...)
		spans = append(spans, t.ring[:t.next]...)
	}
	return spans, t.dropped.Load()
}

// TraceSpans returns the completed spans of one trace, oldest-first. The
// ring is the trace store — bounded by construction — so a trace whose
// spans have been overwritten comes back partial (or empty): check
// Dropped (walrus_obs_spans_dropped_total) when a trace looks truncated.
// Empty on a nil receiver or an unknown trace id.
func (t *Tracer) TraceSpans(trace uint64) []SpanRecord {
	if t == nil || trace == 0 {
		return nil
	}
	all, _ := t.Spans()
	var out []SpanRecord
	for _, s := range all {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}
