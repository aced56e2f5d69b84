package importance

import (
	"fmt"
	"math/rand"

	"nde/internal/obs"
	"nde/internal/par"
)

// MCShapleyConfig controls the Monte-Carlo permutation estimator of the
// Data Shapley value (Ghorbani & Zou, ICML 2019).
type MCShapleyConfig struct {
	// Permutations is the number of sampled permutations (default 100).
	Permutations int
	// Seed makes the estimate reproducible.
	Seed int64
	// Truncation enables TMC-Shapley: once the running utility is within
	// Truncation of the full-data utility, the rest of the permutation is
	// assigned zero marginal contribution. Zero disables truncation.
	Truncation float64
	// Workers bounds the permutation fan-out (<= 0 = GOMAXPROCS, 1 =
	// serial). The estimate is Float64bits-identical for every value.
	Workers int
}

// MCShapley estimates Shapley values by averaging marginal contributions
// over random permutations: for each permutation, examples are added one by
// one and each example is credited with the utility gain it causes.
// The cost is O(Permutations · n) utility evaluations, less with
// truncation.
//
// Permutations run on the shared worker pool. Permutation p draws from its
// own rand stream seeded by a splitmix64 hash of (cfg.Seed, p), and the
// per-permutation contributions are summed in permutation order, so the
// scores do not depend on cfg.Workers. The utility u must be safe for
// concurrent calls unless cfg.Workers is 1; the Utility functions built by
// this package (AccuracyUtility, KNNUtility) are, since they only read the
// datasets they close over.
func MCShapley(n int, u Utility, cfg MCShapleyConfig) (Scores, error) {
	if n <= 0 {
		return nil, fmt.Errorf("importance: need at least one example, got %d", n)
	}
	perms := cfg.Permutations
	if perms <= 0 {
		perms = 100
	}
	resolved := par.Workers(cfg.Workers, perms)
	sp := obs.StartSpan("importance.mcshapley")
	sp.SetInt("n", int64(n)).SetInt("permutations", int64(perms)).SetInt("workers", int64(resolved))
	defer sp.End()
	prog := obs.NewProgress("mcshapley_permutations", perms)
	defer prog.Done()

	uEmpty, err := u(nil)
	if err != nil {
		return nil, err
	}
	full := make([]int, n)
	for i := range full {
		full[i] = i
	}
	uFull, err := u(full)
	if err != nil {
		return nil, err
	}

	subsets := make([][]int, resolved) // per-worker subset scratch
	evals := make([]int64, resolved)   // per-worker counters
	truncs := make([]int64, resolved)
	scores, _, err := orderedSum("importance.mcshapley", cfg.Workers, perms, n, func(w int, c []float64, p int) error {
		clear(c)
		perm := rand.New(rand.NewSource(permSeed(cfg.Seed, p))).Perm(n)
		subset := subsets[w][:0]
		prev := uEmpty
		for _, i := range perm {
			subset = append(subset, i)
			cur, err := u(subset)
			if err != nil {
				return err
			}
			evals[w]++
			c[i] = cur - prev
			prev = cur
			if cfg.Truncation > 0 && abs(uFull-cur) < cfg.Truncation {
				truncs[w]++
				break // remaining examples get zero marginal contribution
			}
		}
		subsets[w] = subset
		prog.Tick(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	inv := 1 / float64(perms)
	for i := range scores {
		scores[i] *= inv
	}
	totalEvals, totalTruncs := int64(2), int64(0)
	for w := range evals {
		totalEvals += evals[w]
		totalTruncs += truncs[w]
	}
	obs.Count("importance_mc_utility_evals_total", totalEvals)
	obs.Count("importance_mc_truncations_total", totalTruncs)
	sp.SetInt("utility_evals", totalEvals).SetInt("truncations", totalTruncs)
	return scores, nil
}

// permSeed derives an independent, deterministic seed for permutation p
// from the config seed via splitmix64 — the per-permutation streams do not
// depend on which worker runs them.
func permSeed(seed int64, p int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(p+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ExactShapley computes Shapley values by enumerating all 2^n subsets.
// It is exponential and intended for n <= 20: validating estimators,
// property-testing the axioms, and exact answers on small groups.
func ExactShapley(n int, u Utility) (Scores, error) {
	if n <= 0 || n > 24 {
		return nil, fmt.Errorf("importance: ExactShapley supports 1..24 examples, got %d", n)
	}
	// utilities of every subset, indexed by bitmask
	utils := make([]float64, 1<<n)
	subset := make([]int, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		subset = subset[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, i)
			}
		}
		v, err := u(subset)
		if err != nil {
			return nil, err
		}
		utils[mask] = v
	}
	// factorial weights w(s) = s!(n-s-1)!/n!
	fact := make([]float64, n+1)
	fact[0] = 1
	for i := 1; i <= n; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	scores := make(Scores, n)
	for i := 0; i < n; i++ {
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<i) != 0 {
				continue
			}
			s := popcount(mask)
			w := fact[s] * fact[n-s-1] / fact[n]
			scores[i] += w * (utils[mask|1<<i] - utils[mask])
		}
	}
	return scores, nil
}

// ExactBanzhaf computes Banzhaf values by full enumeration: the average
// marginal contribution over all 2^(n-1) subsets not containing i.
func ExactBanzhaf(n int, u Utility) (Scores, error) {
	if n <= 0 || n > 24 {
		return nil, fmt.Errorf("importance: ExactBanzhaf supports 1..24 examples, got %d", n)
	}
	utils := make([]float64, 1<<n)
	subset := make([]int, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		subset = subset[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, i)
			}
		}
		v, err := u(subset)
		if err != nil {
			return nil, err
		}
		utils[mask] = v
	}
	scores := make(Scores, n)
	for i := 0; i < n; i++ {
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<i) != 0 {
				continue
			}
			scores[i] += utils[mask|1<<i] - utils[mask]
		}
	}
	inv := 1 / float64(int(1)<<(n-1))
	for i := range scores {
		scores[i] *= inv
	}
	return scores, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
