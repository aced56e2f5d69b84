package linalg

import (
	"fmt"
	"math"
)

// Matrix32 is a dense row-major float32 matrix — the reduced-precision
// mirror of Matrix used by the approximate-neighbor layer. Halving the
// element width halves the memory bandwidth of the distance kernels, which
// is what bounds them on modern cores; the ~7 decimal digits that remain
// are far more precision than approximate neighbor ranking needs.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix32 allocates a zero Rows x Cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// ToMatrix32 returns a float32 copy of m (values truncated to float32).
func (m *Matrix) ToMatrix32() *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// At returns element (r, c).
func (m *Matrix32) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set stores v at element (r, c).
func (m *Matrix32) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (shared backing).
func (m *Matrix32) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// SquaredDistance32 returns the squared L2 distance between two
// equal-length float32 vectors. Four accumulators break the loop-carried
// add dependency (the ANN candidate scan calls this once per candidate);
// the summation order is fixed, so results are deterministic for a given
// input.
func SquaredDistance32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SquaredDistance32 dims %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	k := 0
	for ; k+3 < len(a); k += 4 {
		d0 := a[k] - b[k]
		d1 := a[k+1] - b[k+1]
		d2 := a[k+2] - b[k+2]
		d3 := a[k+3] - b[k+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := s0 + s1 + s2 + s3
	for ; k < len(a); k++ {
		d := a[k] - b[k]
		s += d * d
	}
	return s
}

// Fingerprint returns a cheap content hash over the matrix shape and the
// raw bits of its elements, the float32 analogue of Matrix.Fingerprint
// (same word-at-a-time mix, same process-local-only contract).
func (m *Matrix32) Fingerprint() uint64 {
	h := fpSeed
	h = fpMix(h, uint64(m.Rows))
	h = fpMix(h, uint64(m.Cols))
	for _, v := range m.Data {
		h = fpMix(h, uint64(math.Float32bits(v)))
	}
	return h
}
