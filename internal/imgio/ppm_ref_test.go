package imgio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

// decodePPMReference is the plain PPM/PGM decoder: one Image.Set per
// sample of float64(v)*scale, the raster copied in through a chunk
// buffer. DecodePPM must match it bit for bit, error text included.
func decodePPMReference(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := ppmToken(br)
	if err != nil {
		return nil, fmt.Errorf("imgio: reading PPM magic: %w", err)
	}
	var channels int
	var ascii bool
	switch magic {
	case "P2":
		channels, ascii = 1, true
	case "P3":
		channels, ascii = 3, true
	case "P5":
		channels = 1
	case "P6":
		channels = 3
	default:
		return nil, fmt.Errorf("imgio: unsupported PPM magic %q", magic)
	}
	w, err := ppmInt(br)
	if err != nil {
		return nil, err
	}
	h, err := ppmInt(br)
	if err != nil {
		return nil, err
	}
	maxVal, err := ppmInt(br)
	if err != nil {
		return nil, err
	}
	if w <= 0 || h <= 0 || w*h > 1<<26 {
		return nil, fmt.Errorf("imgio: unreasonable PPM dimensions %dx%d", w, h)
	}
	if maxVal <= 0 || maxVal > 65535 {
		return nil, fmt.Errorf("imgio: unsupported PPM max value %d", maxVal)
	}
	// The raster is buffered incrementally and the image allocated only
	// once it has arrived in full, so a tiny truncated file with huge
	// header dimensions cannot force a huge allocation: memory stays
	// proportional to the data actually present.
	scale := 1 / float64(maxVal)
	if ascii {
		vals := make([]float64, 0, 1024)
		for i := 0; i < w*h*channels; i++ {
			v, err := ppmInt(br)
			if err != nil {
				return nil, err
			}
			vals = append(vals, float64(v)*scale)
		}
		im := New(w, h, channels)
		i := 0
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				for c := 0; c < channels; c++ {
					im.Set(c, x, y, vals[i])
					i++
				}
			}
		}
		return im, nil
	}
	// Binary formats: exactly one whitespace byte follows the max value
	// (already consumed by ppmInt's delimiter read).
	bytesPer := 1
	if maxVal > 255 {
		bytesPer = 2
	}
	rowBytes := w * channels * bytesPer
	total := h * rowBytes
	const chunkSize = 1 << 16
	raster := make([]byte, 0, min(total, chunkSize))
	chunk := make([]byte, min(total, chunkSize))
	for read := 0; read < total; {
		n := min(total-read, chunkSize)
		if _, err := io.ReadFull(br, chunk[:n]); err != nil {
			return nil, fmt.Errorf("imgio: reading PPM raster at byte %d of %d: %w", read, total, err)
		}
		raster = append(raster, chunk[:n]...)
		read += n
	}
	im := New(w, h, channels)
	for y := 0; y < h; y++ {
		row := raster[y*rowBytes:]
		for x := 0; x < w; x++ {
			for c := 0; c < channels; c++ {
				i := (x*channels + c) * bytesPer
				var v int
				if bytesPer == 1 {
					v = int(row[i])
				} else {
					v = int(row[i])<<8 | int(row[i+1])
				}
				im.Set(c, x, y, float64(v)*scale)
			}
		}
	}
	return im, nil
}

// TestDecodePPMMatchesReference: the row-wise table decoder returns every
// sample with the bits the plain per-sample decoder gives it, and fails
// with the same error text, on seeded P5 and P6 files at 8 and 16 bits
// (max values 255, 100, 65535 and 1000, with samples above the max value
// too), odd and even sizes, whole rasters and rasters cut short at
// random lengths, empty rasters among them.
func TestDecodePPMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		magic, channels := "P6", 3
		if trial%2 == 1 {
			magic, channels = "P5", 1
		}
		maxVal := []int{255, 100, 65535, 1000}[trial/2%4]
		bytesPer := 1
		if maxVal > 255 {
			bytesPer = 2
		}
		w, h := 1+rng.Intn(37), 1+rng.Intn(29)
		raster := make([]byte, w*h*channels*bytesPer)
		rng.Read(raster)
		if trial%3 == 0 {
			raster = raster[:rng.Intn(len(raster)+1)]
		}
		file := append([]byte(fmt.Sprintf("%s\n%d %d\n%d\n", magic, w, h, maxVal)), raster...)
		got, gotErr := DecodePPM(bytes.NewReader(file))
		want, wantErr := decodePPMReference(bytes.NewReader(file))
		what := fmt.Sprintf("trial %d: %s %dx%d max %d, %d raster bytes", trial, magic, w, h, maxVal, len(raster))
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.W != want.W || got.H != want.H || got.C != want.C || len(got.Pix) != len(want.Pix) {
			t.Fatalf("%s: decoded %dx%dx%d, reference %dx%dx%d", what, got.W, got.H, got.C, want.W, want.H, want.C)
		}
		for i := range want.Pix {
			if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
				t.Fatalf("%s: sample %d is %v, reference %v", what, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// BenchmarkDecodePPM decodes one 128×85 8-bit P6 file, the paper's size.
func BenchmarkDecodePPM(b *testing.B) {
	raster := make([]byte, 128*85*3)
	rand.New(rand.NewSource(1)).Read(raster)
	file := append([]byte("P6\n128 85\n255\n"), raster...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePPM(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
}
