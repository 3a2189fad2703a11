package wavelet

// Matrix is a dense row-major matrix of float64 values. It is the common
// currency of the transforms in this package. The zero value is an empty
// matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row r, column c.
func (m Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy of m.
func (m Matrix) Clone() Matrix {
	out := Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// IsSquarePow2 reports whether m is square with a power-of-two side of at
// least 2.
func (m Matrix) IsSquarePow2() bool {
	return m.Rows == m.Cols && m.Rows >= 2 && isPow2(m.Rows)
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
