package experiments

import (
	"bytes"
	"strings"
	"testing"

	"walrus/internal/dataset"
)

func TestMeanPrecision(t *testing.T) {
	ds := smallDataset(t, 6, dataset.Flowers, dataset.Ocean, dataset.Bricks)
	cfg := smallConfig()
	rows, err := MeanPrecision(ds, cfg, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].System != "WALRUS" || rows[1].System != "WBIIS" {
		t.Fatalf("rows %+v, want WALRUS then WBIIS", rows)
	}
	for _, r := range rows {
		if r.Queries != 6 { // 2 per category × 3 categories
			t.Fatalf("%s: %d queries", r.System, r.Queries)
		}
		if r.MeanPrecision < 0 || r.MeanPrecision > 1 {
			t.Fatalf("%s precision %v out of range", r.System, r.MeanPrecision)
		}
	}
	// The paper's comparison (Figs. 7/8): WALRUS does well in absolute
	// terms on well-separated categories, and no worse than WBIIS.
	walrus, wbiis := rows[0].MeanPrecision, rows[1].MeanPrecision
	if walrus < 0.5 {
		t.Fatalf("WALRUS precision %v too low", walrus)
	}
	if walrus < wbiis {
		t.Fatalf("WALRUS precision %v below WBIIS %v", walrus, wbiis)
	}
	var buf bytes.Buffer
	PrintPrecision(&buf, 4, rows)
	if !strings.Contains(buf.String(), "mean precision") {
		t.Fatal("PrintPrecision missing header")
	}
}

func TestMeanPrecisionEmptyDataset(t *testing.T) {
	ds := &dataset.Dataset{}
	if _, err := MeanPrecision(ds, smallConfig(), 1, 5); err == nil {
		t.Fatal("accepted empty dataset")
	}
}

func TestEpsilonSweep(t *testing.T) {
	ds := smallDataset(t, 5, dataset.Flowers, dataset.Ocean)
	cfg := smallConfig()
	db, err := BuildWalrusDB(ds, cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := EpsilonSweep(db, ds, 2, 4, []float64{0.03, 0.085, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.MeanPrecision < 0 || r.MeanPrecision > 1 {
			t.Fatalf("precision out of range: %+v", r)
		}
		if i > 0 && r.AvgRegions < rows[i-1].AvgRegions {
			t.Fatalf("selectivity not monotone in epsilon: %+v", rows)
		}
	}
	var buf bytes.Buffer
	PrintEpsilonSweep(&buf, 4, rows)
	if !strings.Contains(buf.String(), "mean precision") {
		t.Fatal("PrintEpsilonSweep missing header")
	}
	if _, err := EpsilonSweep(db, &dataset.Dataset{}, 1, 4, []float64{0.1}); err == nil {
		t.Fatal("accepted empty dataset")
	}
}
