package imgio

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// EncodePPM writes a 3-channel image as a binary PPM (P6) with 8-bit
// samples, or a 1-channel image as a binary PGM (P5).
func EncodePPM(w io.Writer, im *Image) error {
	if err := im.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var magic string
	switch im.C {
	case 1:
		magic = "P5"
	case 3:
		magic = "P6"
	default:
		return fmt.Errorf("imgio: cannot encode %d-channel image as PPM/PGM", im.C)
	}
	if _, err := fmt.Fprintf(bw, "%s\n%d %d\n255\n", magic, im.W, im.H); err != nil {
		return err
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			for c := 0; c < im.C; c++ {
				v := clamp01(im.At(c, x, y))
				if err := bw.WriteByte(byte(v*255 + 0.5)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// DecodePPM reads a binary or ASCII PPM/PGM (P2/P3/P5/P6) image.
func DecodePPM(r io.Reader) (*Image, error) {
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
	for len(raster) < total {
		n := min(total-len(raster), chunkSize)
		raster = slices.Grow(raster, n)
		if _, err := io.ReadFull(br, raster[len(raster):len(raster)+n]); err != nil {
			return nil, fmt.Errorf("imgio: reading PPM raster at byte %d of %d: %w", len(raster), total, err)
		}
		raster = raster[:len(raster)+n]
	}
	// Each row is converted straight into the planes. An 8-bit sample is
	// looked up in a table of float64(v)*scale over every byte value, so
	// it keeps the bits of the expression, above maxVal too; a 16-bit one
	// is computed by the expression itself.
	im := New(w, h, channels)
	var table [256]float64
	for v := range table {
		table[v] = float64(v) * scale
	}
	for y := 0; y < h; y++ {
		row := raster[y*rowBytes : (y+1)*rowBytes]
		for c := 0; c < channels; c++ {
			dst := im.Plane(c)[y*w : (y+1)*w]
			if bytesPer == 1 {
				for x := range dst {
					dst[x] = table[row[x*channels+c]]
				}
				continue
			}
			for x := range dst {
				i := 2 * (x*channels + c)
				dst[x] = float64(int(row[i])<<8|int(row[i+1])) * scale
			}
		}
	}
	return im, nil
}

// ppmToken reads the next whitespace-delimited token, skipping comments.
func ppmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#':
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

func ppmInt(br *bufio.Reader) (int, error) {
	tok, err := ppmToken(br)
	if err != nil {
		return 0, fmt.Errorf("imgio: reading PPM header: %w", err)
	}
	n := 0
	for _, ch := range tok {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("imgio: invalid PPM integer %q", tok)
		}
		n = n*10 + int(ch-'0')
		if n > 1<<30 {
			return 0, fmt.Errorf("imgio: PPM integer %q too large", tok)
		}
	}
	return n, nil
}
