package region

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary layout of a serialized Region (little endian):
//
//	0:  version byte (1)
//	1:  bitmap grid side K (uint8)
//	2:  signature dimensionality (uint16)
//	4:  fine signature dimensionality (uint16; 0 = none)
//	6:  window count (uint32)
//	10: Signature, Min, Max (dim float64s each)
//	    Fine (fineDim float64s)
//	    bitmap words (ceil(K*K/64) uint64s)
const regionMarshalVersion = 1

// MarshalBinary serializes the region for storage in a heap file.
func (r *Region) MarshalBinary() ([]byte, error) {
	dim := len(r.Signature)
	if len(r.Min) != dim || len(r.Max) != dim {
		return nil, fmt.Errorf("region: inconsistent signature dims %d/%d/%d", dim, len(r.Min), len(r.Max))
	}
	if dim > math.MaxUint16 || len(r.Fine) > math.MaxUint16 {
		return nil, fmt.Errorf("region: dimensions too large to marshal")
	}
	if r.Bitmap.K < 1 || r.Bitmap.K > 255 {
		return nil, fmt.Errorf("region: bitmap grid %d out of range", r.Bitmap.K)
	}
	if want := (r.Bitmap.K*r.Bitmap.K + 63) / 64; len(r.Bitmap.Words) != want {
		return nil, fmt.Errorf("region: bitmap has %d words, want %d", len(r.Bitmap.Words), want)
	}
	size := 10 + 8*(3*dim+len(r.Fine)+len(r.Bitmap.Words))
	buf := make([]byte, size)
	buf[0] = regionMarshalVersion
	buf[1] = byte(r.Bitmap.K)
	binary.LittleEndian.PutUint16(buf[2:], uint16(dim))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(r.Fine)))
	binary.LittleEndian.PutUint32(buf[6:], uint32(r.Windows))
	off := 10
	putFloats := func(v []float64) {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(x))
			off += 8
		}
	}
	putFloats(r.Signature)
	putFloats(r.Min)
	putFloats(r.Max)
	putFloats(r.Fine)
	for _, w := range r.Bitmap.Words {
		binary.LittleEndian.PutUint64(buf[off:], w)
		off += 8
	}
	return buf, nil
}

// RecordShape is what a serialized region's header declares: its bitmap
// grid side, signature and fine signature dimensionalities, and window
// count.
type RecordShape struct {
	K, Dim, FineDim, Windows int
}

// ParseShape reads a serialized region's header and checks that the
// record is exactly as long as the header declares.
func ParseShape(data []byte) (RecordShape, error) {
	if len(data) < 10 {
		return RecordShape{}, fmt.Errorf("region: record too short (%d bytes)", len(data))
	}
	if data[0] != regionMarshalVersion {
		return RecordShape{}, fmt.Errorf("region: unsupported record version %d", data[0])
	}
	s := RecordShape{
		K:       int(data[1]),
		Dim:     int(binary.LittleEndian.Uint16(data[2:])),
		FineDim: int(binary.LittleEndian.Uint16(data[4:])),
		Windows: int(binary.LittleEndian.Uint32(data[6:])),
	}
	if want := 10 + 8*(3*s.Dim+s.FineDim+(s.K*s.K+63)/64); len(data) != want {
		return RecordShape{}, fmt.Errorf("region: record is %d bytes, want %d", len(data), want)
	}
	return s, nil
}

// UnmarshalBinary reverses MarshalBinary.
func (r *Region) UnmarshalBinary(data []byte) error {
	s, err := ParseShape(data)
	if err != nil {
		return err
	}
	*r = Region{
		Signature: make([]float64, s.Dim),
		Min:       make([]float64, s.Dim),
		Max:       make([]float64, s.Dim),
		Bitmap:    NewBitmap(s.K),
	}
	if s.FineDim > 0 {
		r.Fine = make([]float64, s.FineDim)
	}
	return r.DecodeInto(data)
}

// DecodeInto decodes a serialized region into r's slices without
// allocating: Signature, Fine and Bitmap.Words must already have the
// lengths the record declares and Bitmap.K its grid; Min and Max are
// filled when they have the signature's length and skipped when empty,
// for a reader that keeps no bounding boxes. Windows is set.
func (r *Region) DecodeInto(data []byte) error {
	s, err := ParseShape(data)
	if err != nil {
		return err
	}
	box := len(r.Min) > 0 || len(r.Max) > 0
	if len(r.Signature) != s.Dim || len(r.Fine) != s.FineDim || r.Bitmap.K != s.K ||
		len(r.Bitmap.Words) != (s.K*s.K+63)/64 || (box && (len(r.Min) != s.Dim || len(r.Max) != s.Dim)) {
		return fmt.Errorf("region: record of grid %d, dims %d/%d does not fit grid %d, dims %d/%d",
			s.K, s.Dim, s.FineDim, r.Bitmap.K, len(r.Signature), len(r.Fine))
	}
	off := 10
	getFloats := func(out []float64) {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
	}
	getFloats(r.Signature)
	if box {
		getFloats(r.Min)
		getFloats(r.Max)
	} else {
		off += 16 * s.Dim
	}
	getFloats(r.Fine)
	for i := range r.Bitmap.Words {
		r.Bitmap.Words[i] = binary.LittleEndian.Uint64(data[off:])
		off += 8
	}
	r.Windows = s.Windows
	return nil
}
