package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"walrus/internal/dataset"
	"walrus/internal/imgio"
	"walrus/internal/wbiis"
)

// RobustnessRow reports, for one image transformation, at which rank each
// system retrieves the original image when queried with the transformed
// version. Rank 1 is best; 0 means the original was not retrieved at all.
type RobustnessRow struct {
	Transform  string
	WalrusRank int
	WalrusSim  float64
	WBIISRank  int
}

// Robustness quantifies the introduction's robustness claims ("resolution
// changes, dithering effects, color shifts, orientation, size, and
// location"): a database image is perturbed by each transformation and
// used as a query; the row records where the unperturbed original lands in
// each system's ranking.
func Robustness(ds *dataset.Dataset, cfg WalrusConfig, target dataset.Item) ([]RobustnessRow, error) {
	db, err := BuildWalrusDB(ds, cfg.Options)
	if err != nil {
		return nil, err
	}
	wx, err := wbiis.New(wbiis.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for _, it := range ds.Items {
		if err := wx.Add(it.ID, it.Image); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(7))
	im := target.Image
	variants := []struct {
		name string
		make func() (*imgio.Image, error)
	}{
		{"identity", func() (*imgio.Image, error) { return im.Clone(), nil }},
		{"noise 5%", func() (*imgio.Image, error) { return imgio.AddNoise(im, rng, 0.05), nil }},
		{"dither 8 levels", func() (*imgio.Image, error) { return imgio.Dither(im, 8), nil }},
		{"color shift +0.08", func() (*imgio.Image, error) { return imgio.ColorShift(im, 0.08, 0.08, 0.08), nil }},
		{"translate (16,12)", func() (*imgio.Image, error) { return imgio.Translate(im, 16, 12, 0.5), nil }},
		{"flip horizontal", func() (*imgio.Image, error) { return imgio.FlipH(im), nil }},
		{"upscale 1.5x", func() (*imgio.Image, error) { return imgio.Resize(im, im.W*3/2, im.H*3/2) }},
		// 0.8 keeps the smallest dataset side (85px) above the 64px window.
		{"downscale 0.8x", func() (*imgio.Image, error) { return imgio.Resize(im, im.W*4/5, im.H*4/5) }},
	}

	var rows []RobustnessRow
	for _, v := range variants {
		q, err := v.make()
		if err != nil {
			return nil, err
		}
		row := RobustnessRow{Transform: v.name}
		// Skip variants that became too small for the sliding window.
		if q.W >= cfg.Options.Region.MinWindow && q.H >= cfg.Options.Region.MinWindow {
			matches, _, err := db.QueryContext(context.Background(), q, cfg.Params)
			if err != nil {
				return nil, err
			}
			for i, m := range matches {
				if m.ID == target.ID {
					row.WalrusRank = i + 1
					row.WalrusSim = m.Similarity
					break
				}
			}
		}
		wm, err := wx.Query(q, len(ds.Items))
		if err != nil {
			return nil, err
		}
		for i, m := range wm {
			if m.ID == target.ID {
				row.WBIISRank = i + 1
				break
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintRobustness renders the robustness table.
func PrintRobustness(w io.Writer, target string, rows []RobustnessRow) {
	fmt.Fprintf(w, "Robustness: rank of the original (%s) when querying with a transformed copy\n", target)
	fmt.Fprintf(w, "%-20s %13s %13s %12s\n", "transform", "WALRUS rank", "WALRUS sim", "WBIIS rank")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %13s %13.4f %12s\n", r.Transform, rankString(r.WalrusRank), r.WalrusSim, rankString(r.WBIISRank))
	}
}

func rankString(r int) string {
	if r == 0 {
		return "miss"
	}
	return fmt.Sprintf("%d", r)
}
