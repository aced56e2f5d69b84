package linalg

import (
	"math/rand"
	"testing"
)

func randMatrix32(r *rand.Rand, rows, cols int) *Matrix32 {
	m := NewMatrix32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

// ToMatrix32 truncates element-wise and preserves shape, empty shapes
// included.
func TestMatrix32ConversionAndEmpty(t *testing.T) {
	m := FromRows([][]float64{{1.5, -2.25}, {0, 3.125}})
	m32 := m.ToMatrix32()
	if m32.Rows != 2 || m32.Cols != 2 {
		t.Fatalf("shape %dx%d", m32.Rows, m32.Cols)
	}
	for i, v := range m.Data {
		if m32.Data[i] != float32(v) {
			t.Fatalf("element %d: %v vs %v", i, m32.Data[i], v)
		}
	}
	empty := NewMatrix(0, 3).ToMatrix32()
	if empty.Rows != 0 || empty.Cols != 3 || len(empty.Data) != 0 {
		t.Fatalf("empty shape %dx%d", empty.Rows, empty.Cols)
	}
}

// Fingerprints must differ on content changes and be stable on clones.
func TestMatrix32Fingerprint(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := randMatrix32(r, 10, 4)
	clone := &Matrix32{Rows: a.Rows, Cols: a.Cols, Data: append([]float32(nil), a.Data...)}
	if a.Fingerprint() != clone.Fingerprint() {
		t.Fatal("identical content, different fingerprints")
	}
	clone.Set(3, 2, clone.At(3, 2)+1)
	if a.Fingerprint() == clone.Fingerprint() {
		t.Fatal("mutation did not change fingerprint")
	}
}
