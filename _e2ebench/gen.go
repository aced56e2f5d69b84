package main

import (
	"math"
	"math/rand"
	"strconv"

	"nde/internal/linalg"
	"nde/internal/ml"
)

// Shape of every generated dataset: clustered Gaussian features as in the
// repository's BenchmarkIncremental (32 centers drawn N(0, 8²) per
// coordinate, rows = center + N(0, 1)), binary labels center%2.
const (
	dim     = 32
	centers = 32
)

// dataSpec fully determines one generated dataset: the same spec always
// yields the same values and the same request body, byte for byte.
type dataSpec struct {
	Seed               int64
	Train, Valid, Test int
	// Flip is the share of train labels flipped; the unflipped labels are
	// kept as Truth (the cleaning oracle).
	Flip float64
}

// genData is one generated dataset, row-major with dim columns.
type genData struct {
	TrainX, ValidX, TestX []float64
	TrainY, ValidY, TestY []int
	Truth                 []int // nil unless Flip > 0
}

// round4 keeps four decimals. The quotient of the exact integer and 1e4 is
// correctly rounded, so it is the float64 strconv.ParseFloat returns for
// the printed value: the server decodes exactly the values generated here.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// generate builds the dataset for s.
func generate(s dataSpec) *genData { return generateInto(&genData{}, s) }

// generateInto is generate reusing g's slices where they are large enough,
// so a client generating one dataset per request allocates nothing in
// steady state.
func generateInto(g *genData, s dataSpec) *genData {
	r := rand.New(rand.NewSource(s.Seed))
	ctr := make([]float64, centers*dim)
	for i := range ctr {
		ctr[i] = r.NormFloat64() * 8
	}
	mk := func(x []float64, y []int, rows int) ([]float64, []int) {
		if rows == 0 {
			return nil, nil
		}
		x = grow(x, rows*dim)
		y = grow(y, rows)
		for i := 0; i < rows; i++ {
			c := r.Intn(centers)
			for j := 0; j < dim; j++ {
				x[i*dim+j] = round4(ctr[c*dim+j] + r.NormFloat64())
			}
			y[i] = c % 2
		}
		return x, y
	}
	g.TrainX, g.TrainY = mk(g.TrainX, g.TrainY, s.Train)
	g.ValidX, g.ValidY = mk(g.ValidX, g.ValidY, s.Valid)
	g.TestX, g.TestY = mk(g.TestX, g.TestY, s.Test)
	g.Truth = nil
	if s.Flip > 0 {
		g.Truth = append([]int(nil), g.TrainY...)
		for _, i := range r.Perm(s.Train)[:int(s.Flip*float64(s.Train))] {
			g.TrainY[i] ^= 1
		}
	}
	return g
}

// grow returns s resized to n, reusing its backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// appendSplit appends one split as the wire MatrixSpec {"x": rows, "y": labels}.
func appendSplit(b []byte, x []float64, y []int) []byte {
	b = append(b, `{"x":[`...)
	for i := range y {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range x[i*dim : (i+1)*dim] {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'f', 4, 64)
		}
		b = append(b, ']')
	}
	b = append(b, `],"y":`...)
	b = appendInts(b, y)
	return append(b, '}')
}

func appendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, y := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(y), 10)
	}
	return append(b, ']')
}

// registerBody appends the POST /v1/datasets body for g to b (which may be
// a reused buffer, so steady-state generation allocates nothing).
func registerBody(b []byte, g *genData) []byte {
	b = append(b, `{"train":`...)
	b = appendSplit(b, g.TrainX, g.TrainY)
	b = append(b, `,"valid":`...)
	b = appendSplit(b, g.ValidX, g.ValidY)
	if g.TestY != nil {
		b = append(b, `,"test":`...)
		b = appendSplit(b, g.TestX, g.TestY)
	}
	if g.Truth != nil {
		b = append(b, `,"truth":`...)
		b = appendInts(b, g.Truth)
	}
	return append(b, '}')
}

// dataset materializes one split as the server does for an inline matrix.
func dataset(x []float64, y []int) *ml.Dataset {
	m := linalg.NewMatrix(len(y), dim)
	copy(m.Data, x)
	d, err := ml.NewDataset(m, append([]int(nil), y...))
	if err != nil {
		panic(err) // generated data is finite and well-shaped
	}
	return d
}

// splits is the ml view of a generated dataset.
type splits struct {
	train, valid, test *ml.Dataset
	truth              []int
}

func (g *genData) splits() *splits {
	s := &splits{train: dataset(g.TrainX, g.TrainY), valid: dataset(g.ValidX, g.ValidY), truth: g.Truth}
	if g.TestY != nil {
		s.test = dataset(g.TestX, g.TestY)
	}
	return s
}

// mix derives the seed of one generated dataset from the workload seed
// and a dataset number (splitmix64 finalizer), so every dataset of every
// workload gets its own stream.
func mix(seed int64, n uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
