package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one harness-side timing record around a public call into a
// layer. Spans of one op share Trace; Parent is the span that caused this
// one (0 for a root). A child is either nested inside its parent's
// interval or a replay of the parent's sub-layer call on the same input,
// run right after the parent returned; selfNS treats both alike.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Count is the work done inside the span (hits, candidates, bytes)
	// where the layer reports one.
	Count int `json:"count,omitempty"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (ids start at 1).
func (r *recorder) start(name string, parent, trace int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, StartNS: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.EndNS = int64(time.Since(r.t0))
	return time.Duration(s.durNS())
}

func (r *recorder) setCount(id, n int) { r.spans[id-1].Count = n }

// measure runs fn inside a span.
func (r *recorder) measure(name string, parent, trace int, fn func()) (id int, d time.Duration) {
	id = r.start(name, parent, trace)
	fn()
	return id, r.end(id)
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfNS returns each span's self time: its duration minus the time its
// child spans cover, where overlapping children count once.
func selfNS(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.durNS() - coveredNS(children[s.ID])
	}
	return self
}

// coveredNS is the length of the union of the intervals.
func coveredNS(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// durationsUS collects the durations (microseconds) of the spans with the
// given name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.durNS())/1e3)
		}
	}
	return out
}

// selfUS collects the self times (microseconds) of the spans with the
// given name that have at least one child: only a sample of ops has its
// sub-layer calls replayed, and an op without replays has nothing to
// subtract.
func selfUS(spans []span, name string) []float64 {
	self := selfNS(spans)
	parents := make(map[int]bool)
	for _, s := range spans {
		parents[s.Parent] = true
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && parents[s.ID] {
			out = append(out, float64(self[s.ID])/1e3)
		}
	}
	return out
}
