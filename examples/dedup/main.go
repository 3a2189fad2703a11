// Dedup: near-duplicate detection with WALRUS. A collection is seeded
// with pairs of near-duplicates (the same scene re-encoded with noise,
// dithering, color shifts or slight crops — typical of images that
// circulate on the web) and every image is queried against the rest; pairs
// above a similarity threshold are reported as duplicates. Region-based
// similarity tolerates exactly the perturbations re-encoding introduces,
// so precision/recall of the recovered pairs is high.
//
// Run with:
//
//	go run ./examples/dedup
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"walrus"
	"walrus/internal/dataset"
	"walrus/internal/imgio"
)

func main() {
	log.SetFlags(0)

	// Build a base collection and derive near-duplicates for some of it.
	ds, err := dataset.Generate(dataset.Options{Seed: 77, PerCategory: 6})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	type img struct {
		id string
		im *imgio.Image
	}
	var collection []img
	truth := map[string]string{} // duplicate id -> original id
	for i, it := range ds.Items {
		collection = append(collection, img{it.ID, it.Image})
		if i%5 != 0 {
			continue
		}
		// Derive a near-duplicate: noise + dither + slight color shift.
		dup := imgio.Dither(imgio.AddNoise(it.Image, rng, 0.03), 32)
		dup = imgio.ColorShift(dup, 0.02, -0.02, 0.01)
		dupID := it.ID + "-dup"
		collection = append(collection, img{dupID, dup})
		truth[dupID] = it.ID
	}

	// Duplicate detection wants much tighter matching than scene retrieval:
	// store finer 8×8 signatures alongside the 2×2 ones and enable the
	// refined matching phase (paper §5.5) with a small epsilon.
	opts := walrus.DefaultOptions()
	opts.Region.FineSignature = 8
	db, err := walrus.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	var batch []walrus.BatchItem
	for _, c := range collection {
		batch = append(batch, walrus.BatchItem{ID: c.id, Image: c.im})
	}
	if err := db.AddBatch(batch, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection: %d images (%d planted duplicate pairs)\n\n", len(collection), len(truth))

	// Query every image and record its best non-self match. A pair is a
	// duplicate when the relationship is mutual (each is the other's best
	// match) and the similarity clears the threshold — the standard
	// mutual-best-match filter for near-duplicate mining.
	const threshold = 0.97
	params := walrus.DefaultQueryParams()
	params.Epsilon = 0.05
	params.Refine = true
	// The auto refine bound is Epsilon*sqrt(fineDim/coarseDim) = 0.2; a
	// hand-tightened bound separates true re-encodings (tiny fine
	// distance) from same-category lookalikes (same coarse signature,
	// different fine texture).
	params.RefineEpsilon = 0.03
	params.Tau = threshold
	best := map[string]string{}
	for _, c := range collection {
		matches, _, err := db.QueryContext(context.Background(), c.im, params)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range matches {
			if m.ID != c.id {
				best[c.id] = m.ID
				break
			}
		}
	}
	seen := map[string]bool{}
	var found [][2]string
	for id, other := range best {
		// Accept the pair when the relationship is mutual, or when the
		// counterpart simply has no recorded best match (it cleared the
		// threshold in one direction only).
		if b, ok := best[other]; ok && b != id {
			continue
		}
		a, b := id, other
		if a > b {
			a, b = b, a
		}
		if !seen[a+"|"+b] {
			seen[a+"|"+b] = true
			found = append(found, [2]string{a, b})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i][0] < found[j][0] })

	correct := 0
	for _, p := range found {
		isTrue := truth[p[1]] == p[0] || truth[p[0]] == p[1]
		mark := " "
		if isTrue {
			mark = "*"
			correct++
		}
		fmt.Printf("  %s %-22s <-> %s\n", mark, p[0], p[1])
	}
	fmt.Printf("\nrecovered %d pairs, %d planted (* = planted), precision %.2f, recall %.2f\n",
		len(found), len(truth),
		safeDiv(correct, len(found)), safeDiv(correct, len(truth)))
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
