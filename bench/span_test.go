package main

import "testing"

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 1000},
		// Nested children, overlapping each other: covered 100..500.
		{ID: 2, Parent: 1, Name: "a", StartNS: 100, EndNS: 400},
		{ID: 3, Parent: 1, Name: "b", StartNS: 300, EndNS: 500},
		// A grandchild takes from its parent only.
		{ID: 4, Parent: 2, Name: "c", StartNS: 150, EndNS: 250},
	}
	self := selfNS(spans)
	for id, want := range map[int]int64{1: 600, 2: 200, 3: 200, 4: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// A replayed sub-layer call runs after its parent has returned; it is
// subtracted all the same, and a residual can come out negative.
func TestSelfTimeSubtractsReplays(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "walrus.add", StartNS: 0, EndNS: 500},
		{ID: 2, Parent: 1, Name: "region.extract", StartNS: 600, EndNS: 900},
		{ID: 3, Parent: 2, Name: "wavelet.sliding", StartNS: 1000, EndNS: 1200},
		{ID: 4, Parent: 2, Name: "birch.cluster", StartNS: 1300, EndNS: 1350},
		{ID: 5, Name: "walrus.add", StartNS: 2000, EndNS: 2400}, // not sampled: no replays
		{ID: 6, Name: "walrus.query", StartNS: 3000, EndNS: 3100},
		{ID: 7, Parent: 6, Name: "rstar.search", StartNS: 3200, EndNS: 3350},
	}
	self := selfNS(spans)
	if self[1] != 200 || self[2] != 50 || self[6] != -50 {
		t.Errorf("self times = add %d, extract %d, query %d; want 200, 50, -50", self[1], self[2], self[6])
	}
	if got := selfUS(spans, "walrus.add"); len(got) != 1 || got[0] != 0.2 {
		t.Errorf("selfUS must skip ops without replays: got %v, want [0.2]", got)
	}
	if got := durationsUS(spans, "walrus.add"); len(got) != 2 || got[0] != 0.5 || got[1] != 0.4 {
		t.Errorf("durationsUS = %v, want [0.5 0.4]", got)
	}
}

func TestRecorderParentsAndCounts(t *testing.T) {
	r := newRecorder()
	op := r.start("op", 0, 7)
	child, d := r.measure("child", op, 7, func() {})
	r.setCount(child, 3)
	r.end(op)
	if d < 0 || len(r.spans) != 2 {
		t.Fatalf("recorded %d spans, child took %v", len(r.spans), d)
	}
	c := r.spans[child-1]
	if c.Parent != op || c.Trace != 7 || c.Count != 3 || c.EndNS < c.StartNS {
		t.Errorf("child span = %+v", c)
	}
	if p := r.spans[op-1]; p.StartNS > c.StartNS || p.EndNS < c.EndNS {
		t.Errorf("parent %+v does not enclose child %+v", p, c)
	}
}
