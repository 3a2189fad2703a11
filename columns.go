package walrus

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"walrus/internal/region"
	"walrus/internal/rstar"
)

// regionColumns is a shard's region data in pointer-free columns indexed
// by payload number (the R*-tree payload, an index into shard.refs):
// region p's signature is sig[p*dim:(p+1)*dim], its bitmap
// bits[p*words:(p+1)*words], and so on. The fine column is kept only
// when the options store fine signatures, and the box columns only under
// UseBBox, the one configuration that reads them. pop[p] is the number of
// bits set in region p's bitmap words (see popCells), computed from the
// bitmap wherever a region enters, so the page format does not hold it:
// the score stage's coverage bound sums it.
//
// The columns are append-only: a removed image keeps its slots, as its
// refs do, so no published element is ever written again, and a
// published snapCore shares them by copying the slice headers. Appending
// past a published length never moves the elements a snapshot can see.
type regionColumns struct {
	dim, fineDim int
	k, words     int // bitmap grid side and words per bitmap
	bbox         bool

	sig      []float64
	bits     []uint64
	pop      []uint16
	windows  []uint32
	fine     []float64
	min, max []float64
}

// newRegionColumns returns empty columns for regions extracted under opts.
func newRegionColumns(opts Options) regionColumns {
	ro := opts.Region
	c := regionColumns{dim: ro.Dim(), k: ro.BitmapGrid, words: (ro.BitmapGrid*ro.BitmapGrid + 63) / 64, bbox: opts.UseBBox}
	if ro.FineSignature > 0 {
		c.fineDim = ro.Space.Channels() * ro.FineSignature * ro.FineSignature
	}
	return c
}

// grow makes room for n more regions, so that a load whose size is known
// up front fills every column without regrowing it.
func (c *regionColumns) grow(n int) {
	c.sig = slices.Grow(c.sig, n*c.dim)
	c.bits = slices.Grow(c.bits, n*c.words)
	c.pop = slices.Grow(c.pop, n)
	c.windows = slices.Grow(c.windows, n)
	c.fine = slices.Grow(c.fine, n*c.fineDim)
	if c.bbox {
		c.min = slices.Grow(c.min, n*c.dim)
		c.max = slices.Grow(c.max, n*c.dim)
	}
}

// checkShape checks that region local of an image has the signature, fine
// signature and box lengths the columns store.
func (c *regionColumns) checkShape(local int, r *region.Region) error {
	if len(r.Signature) != c.dim || len(r.Fine) != c.fineDim || (c.bbox && (len(r.Min) != c.dim || len(r.Max) != c.dim)) {
		return fmt.Errorf("walrus: region %d has signature dims %d/%d and a %d/%d box, the database stores %d/%d",
			local, len(r.Signature), len(r.Fine), len(r.Min), len(r.Max), c.dim, c.fineDim)
	}
	return nil
}

// add appends r as the next payload. r has passed checkShape and the
// grid check.
func (c *regionColumns) add(r *region.Region) {
	c.sig = append(c.sig, r.Signature...)
	c.bits = append(c.bits, r.Bitmap.Words...)
	c.pop = append(c.pop, popOf(r.Bitmap.Words))
	c.windows = append(c.windows, uint32(r.Windows))
	c.fine = append(c.fine, r.Fine...)
	if c.bbox {
		c.min = append(c.min, r.Min...)
		c.max = append(c.max, r.Max...)
	}
}

// zeroed returns empty columns of c's shape holding n zero regions, for a
// load that fills payloads out of order.
func (c regionColumns) zeroed(n int) regionColumns {
	c.sig = make([]float64, n*c.dim)
	c.bits = make([]uint64, n*c.words)
	c.pop = make([]uint16, n)
	c.windows = make([]uint32, n)
	c.fine = make([]float64, n*c.fineDim)
	c.min, c.max = nil, nil
	if c.bbox {
		c.min, c.max = make([]float64, n*c.dim), make([]float64, n*c.dim)
	}
	return c
}

// span returns the sub-slice of a column of width w holding payload p,
// capped so that no append through it can reach payload p+1.
func span[T any](col []T, p, w int) []T { return col[p*w : (p+1)*w : (p+1)*w] }

// fineOf returns payload p's fine signature, or nil when the columns
// keep none.
func (c *regionColumns) fineOf(p int) []float64 {
	if c.fineDim == 0 {
		return nil
	}
	return span(c.fine, p, c.fineDim)
}

// bitsRun returns the bitmap words of payloads [lo, hi), laid out as
// match.ScoreTrusted reads them.
func (c *regionColumns) bitsRun(lo, hi int) []uint64 {
	return c.bits[lo*c.words : hi*c.words : hi*c.words]
}

// region returns payload p as a region.Region whose slices alias the
// columns. Min and Max are nil unless the columns keep boxes.
func (c *regionColumns) region(p int) region.Region {
	r := region.Region{
		Signature: span(c.sig, p, c.dim),
		Bitmap:    region.Bitmap{K: c.k, Words: span(c.bits, p, c.words)},
		Windows:   int(c.windows[p]),
		Fine:      c.fineOf(p),
	}
	if c.bbox {
		r.Min, r.Max = span(c.min, p, c.dim), span(c.max, p, c.dim)
	}
	return r
}

// regions returns payloads [lo, hi) as regions aliasing the columns.
func (c *regionColumns) regions(lo, hi int) []region.Region {
	out := make([]region.Region, hi-lo)
	for i := range out {
		out[i] = c.region(lo + i)
	}
	return out
}

// decodeAt decodes the serialized region rec, region local of its image,
// into payload p of columns sized by zeroed, writing its box only when the
// columns keep boxes. It refuses a record off the columns' bitmap grid
// or of other dimensionalities; ParseShape has checked that the record's
// length fits its header.
func (c *regionColumns) decodeAt(local, p int, rec []byte) error {
	shape, err := region.ParseShape(rec)
	if err != nil {
		return err
	}
	if shape.K != c.k {
		return fmt.Errorf("walrus: region %d has a bitmap of grid %d, the database's grid is %d", local, shape.K, c.k)
	}
	if shape.Dim != c.dim || shape.FineDim != c.fineDim {
		return fmt.Errorf("walrus: region %d has signature dims %d/%d, the database stores %d/%d",
			local, shape.Dim, shape.FineDim, c.dim, c.fineDim)
	}
	r := c.region(p)
	if err := r.DecodeInto(rec); err != nil {
		return err
	}
	c.windows[p] = uint32(r.Windows)
	c.pop[p] = popOf(r.Bitmap.Words)
	return nil
}

// popOf is the pop column's entry for a bitmap's words: the bits they
// set, saturated at math.MaxUint16. Only a 256×256 grid holds more
// cells than that; popCells reads a saturated entry back as that grid's
// 1<<16 cells.
func popOf(words []uint64) uint16 {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return uint16(min(n, math.MaxUint16))
}

// popCells is an upper bound on the bits set in the bitmap whose pop
// column entry is v: v itself, or 1<<16 for a saturated entry.
func popCells(v uint16) int {
	if v == math.MaxUint16 {
		return 1 << 16
	}
	return int(v)
}

// key returns payload p's index key (see signatureRect).
func (c *regionColumns) key(p int) rstar.Rect {
	r := c.region(p)
	return signatureRect(c.bbox, r)
}
