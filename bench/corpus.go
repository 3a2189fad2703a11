package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"walrus"
	"walrus/internal/dataset"
	"walrus/internal/imgio"
)

// The paper's misc dataset shapes, and the one-window shape the durable
// ingest workload uses to keep extraction out of its way.
var (
	paperSizes = [][2]int{{128, 85}, {85, 128}, {96, 128}}
	smallSizes = [][2]int{{64, 64}}
)

// batchSize bounds the images the harness holds at once: at float64
// pixels a paper-size image is a quarter megabyte, so corpora are
// streamed in batches and re-rendered from the seed when needed again.
const batchSize = 64

// corpus is a seeded stream of labelled images: image i is a pure
// function of (seed, stream, i). The program under test sees only the
// rendered images and their ids.
type corpus struct {
	seed   int64
	stream int64
	sizes  [][2]int
}

// item is one corpus image with its ground-truth category (also the id's
// prefix, so dataset.CategoryOf recovers it from a result id).
type item struct {
	ID    string
	Cat   dataset.Category
	Image *imgio.Image
}

func (it item) area() int { return it.Image.W * it.Image.H }

// rng derives the generator of one (purpose, index) pair from the seed
// with a splitmix64 round, so neighbouring indices do not share streams.
func (c corpus) rng(purpose, i int) *rand.Rand {
	z := uint64(c.seed)*0x9E3779B97F4A7C15 + uint64(c.stream)<<48 + uint64(purpose)<<40 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// item renders corpus image i. Categories and shapes rotate with i, so
// every seed gets the same mix of scene types and only their content
// differs: how many regions a probe retrieves depends heavily on the
// category, and a mix left to chance would move every query metric from
// seed to seed by more than any change under test.
func (c corpus) item(i int) item {
	cats := dataset.Categories()
	cat := cats[i%len(cats)]
	size := c.sizes[i/len(cats)%len(c.sizes)]
	return item{ID: c.id(i), Cat: cat, Image: dataset.Render(cat, c.rng(0, i), size[0], size[1])}
}

// id is item(i).ID without rendering the image.
func (c corpus) id(i int) string {
	cats := dataset.Categories()
	return fmt.Sprintf("%s-%07d", cats[i%len(cats)], i)
}

// pick maps draw q to one of the first n corpus images: a seeded offset
// plus a stride that is coprime with every corpus size and with the
// category count, so consecutive draws walk all images and all
// categories evenly.
func (c corpus) pick(q, n int) int {
	const stride = 7919
	return (c.rng(4, 0).Intn(n) + q*stride) % n
}

// batch renders items [lo, hi).
func (c corpus) batch(lo, hi int) []item {
	out := make([]item, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, c.item(i))
	}
	return out
}

// eachBatch renders the first n images batchSize at a time and hands each
// batch to fn, so no more than one batch is ever resident.
func (c corpus) eachBatch(n int, fn func(lo int, items []item) error) error {
	for lo := 0; lo < n; lo += batchSize {
		if err := fn(lo, c.batch(lo, min(lo+batchSize, n))); err != nil {
			return err
		}
	}
	return nil
}

// batchItems is items as the database's bulk calls take them.
func batchItems(items []item) []walrus.BatchItem {
	out := make([]walrus.BatchItem, len(items))
	for i, it := range items {
		out[i] = walrus.BatchItem{ID: it.ID, Image: it.Image}
	}
	return out
}

// The query variants: each keeps the source image's category.
const (
	variantCrop = iota
	variantTranslate
	variantColorShift
	variantOcclude
	numVariants
)

// variant renders query q: a crop, translation, colour shift or
// occlusion (rotating with q) of one of the first n corpus images. Every
// q yields a distinct image, so no result cache can answer it.
func (c corpus) variant(q, n int) (item, error) {
	rng := c.rng(1, q)
	src := c.item(c.pick(q, n))
	im := src.Image
	var err error
	switch q / len(dataset.Categories()) % numVariants {
	case variantCrop:
		// Keep at least 7/8 of each side and never less than one window.
		w := max(im.W-rng.Intn(im.W/8+1), 64)
		h := max(im.H-rng.Intn(im.H/8+1), 64)
		im, err = imgio.Crop(im, rng.Intn(im.W-w+1), rng.Intn(im.H-h+1), w, h)
	case variantTranslate:
		im = imgio.Translate(im, rng.Intn(13)-6, rng.Intn(13)-6, 0.5)
	case variantColorShift:
		im = imgio.ColorShift(im, rng.Float64()*0.08-0.04, rng.Float64()*0.08-0.04, rng.Float64()*0.08-0.04)
	case variantOcclude:
		side := 16 + rng.Intn(13)
		patch := imgio.New(side, side, 3)
		patch.FillRGB(rng.Float64(), rng.Float64(), rng.Float64())
		im = im.Clone()
		err = imgio.Paste(im, patch, rng.Intn(im.W-side+1), rng.Intn(im.H-side+1))
	}
	if err != nil {
		return item{}, fmt.Errorf("variant %d of %s: %w", q, src.ID, err)
	}
	return item{ID: fmt.Sprintf("%s-q%07d", src.Cat, q), Cat: src.Cat, Image: im}, nil
}

// hash is the sha256 of the first 32 images as 8-bit PPMs: two runs that
// print the same hash fed the program the same inputs.
func (c corpus) hash() (string, error) {
	h := sha256.New()
	for _, it := range c.batch(0, 32) {
		if err := imgio.EncodePPM(h, it.Image); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
