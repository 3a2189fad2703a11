// Scaletrans: robustness to object scaling and translation, the core claim
// of the WALRUS similarity model (Section 4). One scene is indexed in five
// variants — identical, translated, scaled, translated+scaled, and an
// unrelated control — and the same query is scored by WALRUS and by the
// single-signature WBIIS baseline the paper compares against. WALRUS ranks
// every variant above the control; WBIIS degrades as soon as the object
// moves or changes size.
//
// Run with:
//
//	go run ./examples/scaletrans
package main

import (
	"context"
	"fmt"
	"log"

	"walrus"
	"walrus/internal/imgio"
	"walrus/internal/wbiis"
)

// flowerScene paints a green textured-ish background with a red disk
// cluster ("flower") at the given center and size.
func flowerScene(cx, cy, size int) *imgio.Image {
	im := imgio.New(128, 128, 3)
	im.FillRGB(0.15, 0.55, 0.18)
	// Simple flower: center disk + four petals.
	paint := func(x0, y0, r int, cr, cg, cb float64) {
		for y := y0 - r; y <= y0+r; y++ {
			for x := x0 - r; x <= x0+r; x++ {
				dx, dy := x-x0, y-y0
				if dx*dx+dy*dy <= r*r {
					im.SetRGB(x, y, cr, cg, cb)
				}
			}
		}
	}
	p := size / 2
	paint(cx-p, cy, p, 0.85, 0.1, 0.1)
	paint(cx+p, cy, p, 0.85, 0.1, 0.1)
	paint(cx, cy-p, p, 0.85, 0.1, 0.1)
	paint(cx, cy+p, p, 0.85, 0.1, 0.1)
	paint(cx, cy, size/3, 0.95, 0.85, 0.15)
	return im
}

func unrelatedScene() *imgio.Image {
	im := imgio.New(128, 128, 3)
	im.FillRGB(0.45, 0.5, 0.55)
	for y := 40; y < 90; y++ {
		for x := 30; x < 100; x++ {
			im.SetRGB(x, y, 0.15, 0.25, 0.7)
		}
	}
	return im
}

func main() {
	log.SetFlags(0)

	variants := []struct {
		id string
		im *imgio.Image
	}{
		{"identical", flowerScene(40, 40, 24)},
		{"translated", flowerScene(90, 88, 24)},
		{"scaled", flowerScene(40, 40, 44)},
		{"trans+scaled", flowerScene(84, 80, 44)},
		{"unrelated", unrelatedScene()},
	}
	query := flowerScene(40, 40, 24)

	// WALRUS.
	db, err := walrus.New(walrus.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range variants {
		if err := db.Add(v.id, v.im); err != nil {
			log.Fatal(err)
		}
	}
	wres, _, err := db.QueryContext(context.Background(), query, walrus.DefaultQueryParams())
	if err != nil {
		log.Fatal(err)
	}
	walrusScore := map[string]float64{}
	for _, m := range wres {
		walrusScore[m.ID] = m.Similarity
	}

	// WBIIS baseline.
	wx, err := wbiis.New(wbiis.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range variants {
		if err := wx.Add(v.id, v.im); err != nil {
			log.Fatal(err)
		}
	}
	wbiisRank := map[string]int{}
	bm, err := wx.Query(query, len(variants))
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range bm {
		wbiisRank[m.ID] = i + 1
	}

	fmt.Println("query: flower at (40,40), size 24")
	fmt.Printf("%-14s %18s %12s\n", "variant", "WALRUS similarity", "WBIIS rank")
	for _, v := range variants {
		fmt.Printf("%-14s %18.4f %12d\n", v.id, walrusScore[v.id], wbiisRank[v.id])
	}
	fmt.Println()
	if walrusScore["trans+scaled"] > walrusScore["unrelated"] {
		fmt.Println("WALRUS scores the translated+scaled object above the unrelated control.")
	}
}
