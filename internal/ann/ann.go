// Package ann implements approximate nearest-neighbor search for the nde
// hot paths: an IVF (inverted-file) index that partitions the training
// rows with seeded k-means and probes only the nprobe closest partitions
// per query, plus an optional random-projection routing stage for high-
// dimensional data. All distance work runs on the float32 mirror kernels
// in internal/linalg (half the memory bandwidth of the float64 oracle).
//
// Determinism contract: building twice with the same (data, Config) yields
// the identical index for any worker count — k-means assignment fans out
// on internal/par with per-point slots and the centroid update reduces
// serially in row order — and every query answer is a function of the
// index and the query alone (candidates are ranked under the strict
// (distance, index) total order, the same tie-break as the exact path).
//
// Approximation contract: answers are exact *within the probed
// partitions*. Rows whose true rank would qualify but whose partition is
// not probed are missed; EstimateRecall measures that miss rate so callers
// (ml.NeighborIndex in Auto mode) can certify a recall floor and fall back
// to the exact path when the floor cannot be met.
package ann

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nde/internal/linalg"
	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/par"
)

// Config controls IVF index construction and probing.
type Config struct {
	// NLists is the number of k-means partitions (<= 0 = auto: ~√n,
	// clamped to [1, n/2]).
	NLists int
	// NProbe is the number of partitions scanned per query (<= 0 = auto:
	// max(1, NLists/8)). Raising it trades speed for recall; NProbe ==
	// NLists degenerates to an exact float32 scan.
	NProbe int
	// KMeansIters is the number of Lloyd iterations (<= 0 = 6).
	KMeansIters int
	// Seed drives the deterministic k-means initialization and any
	// random-projection draw.
	Seed int64
	// ProjectDim > 0 routes through a seeded Gaussian random projection to
	// this dimensionality: partitioning and probe selection happen in the
	// projected space while candidate ranking stays in the original space.
	// Use for high-d data where full-width centroid scans dominate.
	// Ignored when >= the data dimensionality.
	ProjectDim int
	// Workers bounds the build pool (<= 0 = auto). Queries are
	// single-threaded per call and safe for concurrent use.
	Workers int
}

// withDefaults resolves the auto knobs against n data rows.
func (c Config) withDefaults(n int) Config {
	if c.NLists <= 0 {
		c.NLists = int(math.Sqrt(float64(n)))
	}
	if c.NLists > n/2 {
		c.NLists = n / 2
	}
	if c.NLists < 1 {
		c.NLists = 1
	}
	if c.NProbe <= 0 {
		c.NProbe = c.NLists / 8
	}
	if c.NProbe < 1 {
		c.NProbe = 1
	}
	if c.NProbe > c.NLists {
		c.NProbe = c.NLists
	}
	if c.KMeansIters <= 0 {
		c.KMeansIters = 6
	}
	return c
}

// Fingerprint hashes the search-relevant knobs; the neighbor-index cache
// mixes it into its key so indexes built under different ANN configs never
// alias.
func (c Config) Fingerprint() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range []uint64{
		uint64(int64(c.NLists)), uint64(int64(c.NProbe)),
		uint64(int64(c.KMeansIters)), uint64(c.Seed), uint64(int64(c.ProjectDim)),
	} {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// Index is a built IVF index over one training matrix. Safe for concurrent
// queries after Build; SetNProbe is not synchronized and belongs to the
// owner's setup phase.
type Index struct {
	cfg  Config
	data *linalg.Matrix32 // n×d original-space rows (candidate ranking)
	// routing space: projected copies when cfg.ProjectDim is in effect,
	// otherwise aliases of data / nil.
	routed    *linalg.Matrix32 // n×p rows used for assignment
	proj      *linalg.Matrix32 // d×p Gaussian projection, nil when off
	centroids *linalg.Matrix32 // NLists×p routing-space centroids
	lists     [][]int32        // row ids per partition, ascending
	// packed layout: data rows regrouped so every partition is one
	// contiguous block — the candidate scan streams sequentially instead of
	// gathering scattered rows (one extra copy of the data, bought for
	// memory-bandwidth-bound probing).
	packed    *linalg.Matrix32 // n×d rows in partition order
	packedIDs []int32          // original row id of each packed row
	listOff   []int32          // partition c spans packed rows [listOff[c], listOff[c+1])
}

// distIdx32 is a (float32 squared distance, row index) pair under the
// strict (distance, index) total order — the same tie-break as the exact
// float64 path, so equal-distance candidates resolve identically.
type distIdx32 struct {
	d float32
	i int32
}

func (a distIdx32) less(b distIdx32) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.i < b.i
}

// Build constructs an IVF index over the rows of data. The build is
// deterministic for a fixed (data, cfg) across worker counts.
func Build(data *linalg.Matrix, cfg Config) (*Index, error) {
	if data == nil || data.Rows == 0 {
		return nil, nderr.Empty("ann: no rows to index")
	}
	if err := data.CheckFinite("ann index rows"); err != nil {
		return nil, fmt.Errorf("ann: %w", err)
	}
	return build(data.ToMatrix32(), cfg)
}

func build(d32 *linalg.Matrix32, cfg Config) (*Index, error) {
	n := d32.Rows
	cfg = cfg.withDefaults(n)
	sp := obs.StartSpan("ann.build")
	sp.SetInt("rows", int64(n)).SetInt("dim", int64(d32.Cols)).
		SetInt("nlists", int64(cfg.NLists)).SetInt("iters", int64(cfg.KMeansIters))
	defer sp.End()

	ix := &Index{cfg: cfg, data: d32, routed: d32}
	if cfg.ProjectDim > 0 && cfg.ProjectDim < d32.Cols {
		ix.proj = gaussianProjection(d32.Cols, cfg.ProjectDim, cfg.Seed)
		ix.routed = project(d32, ix.proj, cfg.Workers)
		sp.SetInt("project_dim", int64(cfg.ProjectDim))
	}
	ix.kmeans()
	ix.pack()
	if obs.Enabled() {
		obs.SetGauge("ann_index_nlists", float64(cfg.NLists))
		obs.SetGauge("ann_index_rows", float64(n))
	}
	return ix, nil
}

// gaussianProjection draws a seeded d×p matrix with N(0, 1/p) entries, the
// standard Johnson–Lindenstrauss scaling so projected squared distances
// estimate original ones.
func gaussianProjection(d, p int, seed int64) *linalg.Matrix32 {
	r := rand.New(rand.NewSource(seed ^ 0x7f4a7c15))
	m := linalg.NewMatrix32(d, p)
	inv := float32(1 / math.Sqrt(float64(p)))
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64()) * inv
	}
	return m
}

// project maps every row of m through proj (m.Cols×p), in parallel over
// rows with a fixed per-row summation order.
func project(m, proj *linalg.Matrix32, workers int) *linalg.Matrix32 {
	out := linalg.NewMatrix32(m.Rows, proj.Cols)
	par.For("ann.project", workers, m.Rows, func(_, r int) {
		row, orow := m.Row(r), out.Row(r)
		for k, v := range row {
			if v == 0 {
				continue
			}
			prow := proj.Row(k)
			for c := range orow {
				orow[c] += v * prow[c]
			}
		}
	})
	return out
}

// kmeans runs seeded Lloyd iterations in the routing space and fills
// centroids + lists. Initialization picks NLists distinct rows via a
// seeded permutation; the assignment step fans out over rows (per-row
// slots), and the update step accumulates serially in row order into
// float64 sums, so the whole build is bit-for-bit reproducible for any
// worker count.
func (ix *Index) kmeans() {
	data, cfg := ix.routed, ix.cfg
	n, p, k := data.Rows, data.Cols, cfg.NLists
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(n)
	cents := linalg.NewMatrix32(k, p)
	for c := 0; c < k; c++ {
		copy(cents.Row(c), data.Row(perm[c]))
	}
	assign := make([]int32, n)
	sums := make([]float64, k*p)
	counts := make([]int, k)
	for it := 0; it < cfg.KMeansIters; it++ {
		par.For("ann.kmeans_assign", cfg.Workers, n, func(_, i int) {
			assign[i] = nearestCentroid(cents, data.Row(i))
		})
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ { // fixed reduction order
			c := int(assign[i])
			counts[c]++
			row, s := data.Row(i), sums[c*p:(c+1)*p]
			for j, v := range row {
				s[j] += float64(v)
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue // empty partition keeps its centroid
			}
			inv := 1 / float64(counts[c])
			crow, s := cents.Row(c), sums[c*p:(c+1)*p]
			for j := range crow {
				crow[j] = float32(s[j] * inv)
			}
		}
	}
	// final assignment against the final centroids, then ascending lists
	par.For("ann.kmeans_assign", cfg.Workers, n, func(_, i int) {
		assign[i] = nearestCentroid(cents, data.Row(i))
	})
	lists := make([][]int32, k)
	for i := 0; i < n; i++ {
		c := assign[i]
		lists[c] = append(lists[c], int32(i))
	}
	ix.centroids, ix.lists = cents, lists
}

// pack copies the data rows into partition order (lists ascending, rows
// ascending within each list) so TopK's candidate scan reads memory
// sequentially. Derived purely from lists, so it inherits the build
// determinism.
func (ix *Index) pack() {
	n, d := ix.data.Rows, ix.data.Cols
	packed := linalg.NewMatrix32(n, d)
	ids := make([]int32, 0, n)
	off := make([]int32, len(ix.lists)+1)
	for c, l := range ix.lists {
		off[c] = int32(len(ids))
		for _, id := range l {
			copy(packed.Row(len(ids)), ix.data.Row(int(id)))
			ids = append(ids, id)
		}
	}
	off[len(ix.lists)] = int32(len(ids))
	ix.packed, ix.packedIDs, ix.listOff = packed, ids, off
}

// nearestCentroid returns the centroid index closest to x under the
// (distance, index) total order.
func nearestCentroid(cents *linalg.Matrix32, x []float32) int32 {
	best, bestD := int32(0), float32(math.MaxFloat32)
	for c := 0; c < cents.Rows; c++ {
		if d := linalg.SquaredDistance32(cents.Row(c), x); d < bestD {
			best, bestD = int32(c), d
		}
	}
	return best
}

// NLists returns the resolved partition count.
func (ix *Index) NLists() int { return ix.cfg.NLists }

// NProbe returns the current probe width.
func (ix *Index) NProbe() int { return ix.cfg.NProbe }

// SetNProbe overrides the probe width (clamped to [1, NLists]). Not
// synchronized with concurrent queries — call during setup only.
func (ix *Index) SetNProbe(p int) {
	if p < 1 {
		p = 1
	}
	if p > ix.cfg.NLists {
		p = ix.cfg.NLists
	}
	ix.cfg.NProbe = p
}

// Config returns the resolved build configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Scratch holds the per-caller buffers a TopK query needs, so steady-state
// probing allocates nothing. The zero value is ready to use; one Scratch
// must not be shared by concurrent queries.
type Scratch struct {
	cd    []distIdx32 // centroid distances
	cand  []distIdx32 // k-best insertion buffer of the candidate scan
	query []float32   // float64→float32 staging for TopK64
	route []float32   // projected-query staging (distinct from query:
	// TopK64 stages into query, and projecting must not overwrite it)
}

// TopK returns up to k row indices nearest to q (a float32 vector in the
// ORIGINAL data space), sorted ascending under the (distance, index)
// order. Fewer than k indices come back only when the probed partitions
// hold fewer than k rows — the caller's signal to fall back to an exact
// scan. scratch may be nil (allocates per call).
func (ix *Index) TopK(q []float32, k int, scratch *Scratch) []int {
	if len(q) != ix.data.Cols {
		panic(fmt.Sprintf("ann: query dim %d vs index dim %d", len(q), ix.data.Cols))
	}
	if k <= 0 {
		return nil
	}
	if scratch == nil {
		scratch = &Scratch{}
	}
	// route: rank centroids in the routing space
	rq := q
	if ix.proj != nil {
		rq = projectVec(q, ix.proj, scratch)
	}
	nl := ix.cfg.NLists
	if cap(scratch.cd) < nl {
		scratch.cd = make([]distIdx32, nl)
	}
	cd := scratch.cd[:nl]
	for c := 0; c < nl; c++ {
		cd[c] = distIdx32{d: linalg.SquaredDistance32(ix.centroids.Row(c), rq), i: int32(c)}
	}
	selectK32(cd, ix.cfg.NProbe)
	probe := cd[:ix.cfg.NProbe]
	sort.Slice(probe, func(a, b int) bool { return probe[a].less(probe[b]) })

	// scan the probed partitions' contiguous blocks, ranking in the
	// original space and keeping the k best in a sorted insertion buffer —
	// most candidates are rejected with a single compare against the
	// current k-th. The result is the k smallest under the strict
	// (distance, index) order, independent of scan order.
	if cap(scratch.cand) < k {
		scratch.cand = make([]distIdx32, 0, k)
	}
	best := scratch.cand[:0]
	d := ix.packed.Cols
	qd := q[:d]
	thr := float32(math.Inf(1)) // current k-th best distance once best is full
	for _, pc := range probe {
		lo, hi := int(ix.listOff[pc.i]), int(ix.listOff[pc.i+1])
	scan:
		for r := lo; r < hi; r++ {
			// squared distance inlined (same order as SquaredDistance32 —
			// four accumulators — so survivors match it bit-for-bit); the
			// call itself is measurable at ~3k candidates per query.
			// Early abandonment: partial sums of non-negative f32 terms are
			// monotone non-decreasing, so a candidate whose running sum
			// strictly exceeds thr can never displace the k-th best (at a
			// tie the full distance could still win on index, hence strict).
			// The check reads a temporary — the accumulators themselves are
			// untouched, so a survivor's final sum has the canonical order.
			row := ix.packed.Row(r)[:d]
			var s0, s1, s2, s3 float32
			kk := 0
			for ; kk+3 < d; kk += 4 {
				d0 := row[kk] - qd[kk]
				d1 := row[kk+1] - qd[kk+1]
				d2 := row[kk+2] - qd[kk+2]
				d3 := row[kk+3] - qd[kk+3]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
				if s0+s1+s2+s3 > thr {
					continue scan
				}
			}
			s := s0 + s1 + s2 + s3
			for ; kk < d; kk++ {
				dd := row[kk] - qd[kk]
				s += dd * dd
			}
			c := distIdx32{d: s, i: ix.packedIDs[r]}
			if len(best) == k {
				if !c.less(best[k-1]) {
					continue
				}
				best = best[:k-1]
			}
			pos := len(best)
			best = append(best, c)
			for ; pos > 0 && c.less(best[pos-1]); pos-- {
				best[pos] = best[pos-1]
			}
			best[pos] = c
			if len(best) == k {
				thr = best[k-1].d
			}
		}
	}
	scratch.cand = best[:0]
	if len(best) == 0 {
		return nil
	}
	out := make([]int, len(best))
	for i, p := range best {
		out[i] = int(p.i)
	}
	return out
}

// TopK64 is TopK for a float64 query vector, truncating it to float32.
func (ix *Index) TopK64(q []float64, k int, scratch *Scratch) []int {
	if scratch == nil {
		scratch = &Scratch{}
	}
	if cap(scratch.query) < len(q) {
		scratch.query = make([]float32, len(q))
	}
	q32 := scratch.query[:len(q)]
	for i, v := range q {
		q32[i] = float32(v)
	}
	return ix.TopK(q32, k, scratch)
}

// projectVec maps one original-space vector through the routing
// projection into the scratch's route buffer.
func projectVec(q []float32, proj *linalg.Matrix32, scratch *Scratch) []float32 {
	p := proj.Cols
	if cap(scratch.route) < p {
		scratch.route = make([]float32, p)
	}
	out := scratch.route[:p]
	for i := range out {
		out[i] = 0
	}
	for k, v := range q {
		if v == 0 {
			continue
		}
		prow := proj.Row(k)
		for c := range out {
			out[c] += v * prow[c]
		}
	}
	return out
}

// EstimateRecall measures recall@k of the current probe width against an
// exact float32 scan, over up to sample index rows re-used as queries
// (deterministically spread across the dataset). It is the certification
// primitive behind Auto mode: O(sample · n · d) once, instead of trusting
// the configuration blindly.
func (ix *Index) EstimateRecall(k, sample int) float64 {
	n := ix.data.Rows
	if sample <= 0 {
		sample = 16
	}
	if sample > n {
		sample = n
	}
	if k > n {
		k = n
	}
	if k <= 0 || sample == 0 {
		return 1
	}
	stride := n / sample
	if stride < 1 {
		stride = 1
	}
	scratch := &Scratch{}
	exact := make([]distIdx32, n)
	hit, total := 0, 0
	for s := 0; s < sample; s++ {
		q := ix.data.Row((s * stride) % n)
		for i := 0; i < n; i++ {
			exact[i] = distIdx32{d: linalg.SquaredDistance32(ix.data.Row(i), q), i: int32(i)}
		}
		selectK32(exact, k)
		truth := make(map[int32]bool, k)
		for _, p := range exact[:k] {
			truth[p.i] = true
		}
		got := ix.TopK(q, k, scratch)
		for _, id := range got {
			if truth[int32(id)] {
				hit++
			}
		}
		total += k
	}
	rec := float64(hit) / float64(total)
	obs.SetGauge("ann_recall_estimate", rec)
	return rec
}

// selectK32 partially rearranges a so its k smallest elements under the
// (distance, index) order occupy a[:k] — iterative median-of-three
// quickselect, mirroring the exact path's selector.
func selectK32(a []distIdx32, k int) {
	lo, hi := 0, len(a)
	if k <= 0 || k >= len(a) {
		return
	}
	for hi-lo > 1 {
		p := partition32(a, lo, hi)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

func partition32(a []distIdx32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	if a[lo].less(a[mid]) {
		a[lo], a[mid] = a[mid], a[lo]
	}
	if a[lo].less(a[last]) {
		a[lo], a[last] = a[last], a[lo]
	}
	if a[mid].less(a[last]) {
		a[mid], a[last] = a[last], a[mid]
	}
	pivot := a[mid]
	a[mid], a[last] = a[last], a[mid]
	store := lo
	for i := lo; i < last; i++ {
		if a[i].less(pivot) {
			a[i], a[store] = a[store], a[i]
			store++
		}
	}
	a[store], a[last] = a[last], a[store]
	return store
}
