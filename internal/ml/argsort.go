package ml

import "math"

// The package's one argsort: every full neighbor ordering (a root index's
// per-query order table, AppendRows' block order, KNN.Neighbors) sorts
// training ids by the (squared distance, id) total order through
// argsorter.
//
// It is a stable LSD radix sort over math.Float64bits of the distances.
// For d² ∈ [+0, +Inf] the bit patterns of non-negative floats order as
// unsigned integers exactly as the floats order numerically, and a stable
// sort of ids that start ascending breaks distance ties by id — so the
// result is exactly the (d², id) comparison order, in O(n) per row instead
// of O(n log n) interface calls. Two details keep that identity:
//   - -0 is mapped to +0 (the kernel's v < 0 clamp lets -0 through), so
//     equal distances always have equal keys;
//   - NaN never reaches it: NewNeighborIndex and AppendRows reject feature
//     rows whose squared norm could make the Gram kernel produce one.
//
// A digit whose value is the same for every key of the row moves nothing
// and is skipped; squared distances of one query share their sign and most
// exponent bits, so a typical row runs five or six of the eight passes.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixDigits  = 64 / radixBits
)

// argsorter is one worker's reusable scratch for argsort. The zero value
// is ready to use; buffers grow to the longest row seen and are reused, so
// a worker sorting many rows allocates once.
type argsorter struct {
	keys, keysAlt []uint64
	idxAlt        []int
	counts        [radixDigits][radixBuckets]int
}

// argsort writes into idx (len(idx) == len(d)) the ids 0..len(d)-1 sorted
// by ascending (d[id], id). d must hold values in [-0, +Inf].
func (s *argsorter) argsort(d []float64, idx []int) {
	n := len(d)
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.keysAlt = make([]uint64, n)
		s.idxAlt = make([]int, n)
	}
	keys, keysAlt, idxAlt := s.keys[:n], s.keysAlt[:n], s.idxAlt[:n]
	c := &s.counts
	*c = [radixDigits][radixBuckets]int{}
	for i, v := range d {
		k := math.Float64bits(v)
		if k == 1<<63 { // -0 sorts as +0
			k = 0
		}
		keys[i] = k
		idx[i] = i
		for p := range c {
			c[p][uint8(k>>(p*radixBits))]++
		}
	}
	if n < 2 {
		return
	}
	src, dst, si, di := keys, keysAlt, idx, idxAlt
	for p := range c {
		shift := p * radixBits
		cnt := &c[p]
		if cnt[uint8(src[0]>>shift)] == n {
			continue // constant digit: the pass would be the identity
		}
		sum := 0
		for b, v := range cnt {
			cnt[b] = sum
			sum += v
		}
		for i, k := range src {
			b := uint8(k >> shift)
			j := cnt[b]
			cnt[b] = j + 1
			dst[j] = k
			di[j] = si[i]
		}
		src, dst, si, di = dst, src, di, si
	}
	if &si[0] != &idx[0] {
		copy(idx, si)
	}
}
