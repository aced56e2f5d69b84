package importance

import "nde/internal/par"

// orderedSum returns the elementwise sum over items of the width-long
// vectors fill(worker, slot, i) writes into slot; fill must set every
// element. Items are filled concurrently on the shared pool, one window
// of par.Workers(workers, items) · par.ChunksPerWorker items at a time,
// and each window is added into the sum serially in item order. Every
// element therefore sums as ((0 + v₀) + v₁) + … — the serial order — for
// any worker count, with O(window·width) scratch instead of
// O(items·width). The first fill error in item order ends the loop after
// its window. It also returns the items each worker filled.
func orderedSum(name string, workers, items, width int, fill func(worker int, slot []float64, i int) error) (Scores, []int, error) {
	resolved := par.Workers(workers, items)
	window := min(items, resolved*par.ChunksPerWorker)
	buf := make([]float64, window*width)
	sum := make(Scores, width)
	perWorker := make([]int, resolved)
	for lo := 0; lo < items; lo += window {
		hi := min(lo+window, items)
		st, err := par.ForErr(name, workers, hi-lo, func(w, s int) error {
			return fill(w, buf[s*width:(s+1)*width], lo+s)
		})
		if err != nil {
			return nil, nil, err
		}
		for w, c := range st.PerWorker {
			perWorker[w] += c
		}
		for s := 0; s < hi-lo; s++ {
			for x, v := range buf[s*width : (s+1)*width] {
				sum[x] += v
			}
		}
	}
	return sum, perWorker, nil
}
