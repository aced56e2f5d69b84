package linalg

import (
	"fmt"
	"math"

	"nde/internal/par"
)

// RowNorms2 returns the squared Euclidean norm of every row of m.
func RowNorms2(m *Matrix) []float64 {
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		s := 0.0
		for _, v := range row {
			s += v * v
		}
		out[r] = s
	}
	return out
}

// PairwiseSquaredDistances returns the a.Rows × b.Rows matrix D with
// D[i][j] = ‖a.Row(i) − b.Row(j)‖², computed with the Gram trick
// ‖a‖² + ‖b‖² − 2·a·b over cached row norms. The inner loops are blocked
// so a tile of B rows stays cache-hot across a block of A rows, and the
// dot product is 4-way unrolled. Rows of the output are computed
// independently on the shared pool (workers <= 0 = auto), and every
// element has a fixed summation order, so the result is bit-for-bit
// deterministic for any worker count. Tiny negative values produced by
// floating-point cancellation are clamped to zero.
func PairwiseSquaredDistances(a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: PairwiseSquaredDistances dims %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Rows)
	if a.Rows == 0 || b.Rows == 0 {
		return out
	}
	na := RowNorms2(a)
	nb := RowNorms2(b)
	// rowBlock rows of A per task: large enough to reuse each B tile,
	// small enough to load-balance across workers.
	const rowBlock = 16
	par.ForBlocks("linalg.pairwise_d2", workers, a.Rows, rowBlock, func(_, lo, hi int) {
		pairwiseD2Block(a, b, na, nb, out, lo, hi)
	})
	return out
}

// pairwiseD2Block fills output rows [lo, hi). B rows are walked in tiles of
// jTile so they stay in cache while the block of A rows streams over them.
func pairwiseD2Block(a, b *Matrix, na, nb []float64, out *Matrix, lo, hi int) {
	d := a.Cols
	const jTile = 64
	for j0 := 0; j0 < b.Rows; j0 += jTile {
		j1 := j0 + jTile
		if j1 > b.Rows {
			j1 = b.Rows
		}
		for i := lo; i < hi; i++ {
			ai := a.Row(i)
			orow := out.Row(i)
			for j := j0; j < j1; j++ {
				bj := b.Row(j)
				var s0, s1, s2, s3 float64
				k := 0
				for ; k+3 < d; k += 4 {
					// fixed-length windows: two bounds checks per four
					// products instead of one per element
					x, y := ai[k:k+4:k+4], bj[k:k+4:k+4]
					s0 += x[0] * y[0]
					s1 += x[1] * y[1]
					s2 += x[2] * y[2]
					s3 += x[3] * y[3]
				}
				dot := s0 + s1 + s2 + s3
				for ; k < d; k++ {
					dot += ai[k] * bj[k]
				}
				v := na[i] + nb[j] - 2*dot
				if v < 0 {
					v = 0
				}
				orow[j] = v
			}
		}
	}
}

// Fingerprint returns a cheap content hash over the matrix shape and the
// raw bits of its elements. Used to key caches of derived quantities
// (e.g. pairwise-distance matrices) by content rather than pointer
// identity, so in-place mutations are detected. The hash mixes one 64-bit
// word per element (murmur-style multiply/xorshift) instead of hashing
// byte-at-a-time: fingerprinting sits on the hot path of every cache
// lookup and delta-index registration, and at 8x fewer multiplies it is
// no longer visible next to the O(n·d) work it keys. Values are
// process-local cache keys, never persisted.
func (m *Matrix) Fingerprint() uint64 {
	h := fpSeed
	h = fpMix(h, uint64(m.Rows))
	h = fpMix(h, uint64(m.Cols))
	for _, v := range m.Data {
		h = fpMix(h, math.Float64bits(v))
	}
	return h
}

const fpSeed uint64 = 14695981039346656037

// fpMix folds one 64-bit word into the running hash: the murmur3
// finalizer's multiply/xorshift applied to the word, combined into h with
// a second multiply. Order-sensitive, deterministic, two multiplies per
// element.
func fpMix(h, v uint64) uint64 {
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	h = (h ^ v) * 0xc4ceb9fe1a85ec53
	return h ^ h>>29
}
