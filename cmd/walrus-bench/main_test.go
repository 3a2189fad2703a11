package main

import (
	"fmt"
	"testing"

	"walrus/internal/dataset"
)

func TestCheckCounts(t *testing.T) {
	if err := checkCounts(1, 1, 1); err != nil {
		t.Fatalf("all counts 1: %v", err)
	}
	for _, c := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {1, 1, -3}} {
		if err := checkCounts(c[0], c[1], c[2]); err == nil {
			t.Errorf("checkCounts%v accepted a count below 1", c)
		}
	}
}

func TestSampleEvenly(t *testing.T) {
	items := make([]dataset.Item, 10)
	for i := range items {
		items[i].ID = fmt.Sprint(i)
	}
	ids := func(s []dataset.Item) string {
		out := ""
		for _, it := range s {
			out += it.ID
		}
		return out
	}
	for _, c := range []struct {
		n    int
		want string
	}{
		{0, ""},
		{1, "0"},
		{3, "036"},
		{10, "0123456789"},
		{25, "0123456789"},
	} {
		if got := ids(sampleEvenly(items, c.n)); got != c.want {
			t.Errorf("sampleEvenly(10 items, %d) = %q, want %q", c.n, got, c.want)
		}
	}
	if got := sampleEvenly(nil, 4); len(got) != 0 {
		t.Errorf("sampleEvenly(nil, 4) = %d items, want 0", len(got))
	}
}
