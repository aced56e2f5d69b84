package serve

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// inlineRegisterBody is a canonical POST /v1/datasets body: trainRows and
// validRows rows of clustered Gaussian features (32 centers drawn
// N(0, 8²) per coordinate, rows = center + N(0, 1)) printed at 4 decimals,
// labels center%2.
func inlineRegisterBody(trainRows, validRows, dim int) []byte {
	const centers = 32
	r := rand.New(rand.NewSource(1))
	ctr := make([]float64, centers*dim)
	for i := range ctr {
		ctr[i] = r.NormFloat64() * 8
	}
	split := func(b []byte, rows int) []byte {
		y := make([]int, rows)
		b = append(b, `{"x":[`...)
		for i := range y {
			if i > 0 {
				b = append(b, ',')
			}
			c := r.Intn(centers)
			y[i] = c % 2
			b = append(b, '[')
			for j := 0; j < dim; j++ {
				if j > 0 {
					b = append(b, ',')
				}
				v := math.Round((ctr[c*dim+j]+r.NormFloat64())*1e4) / 1e4
				b = strconv.AppendFloat(b, v, 'f', 4, 64)
			}
			b = append(b, ']')
		}
		b = append(b, `],"y":[`...)
		for i, v := range y {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		return append(b, "]}"...)
	}
	b := append([]byte(nil), `{"train":`...)
	b = split(b, trainRows)
	b = append(b, `,"valid":`...)
	b = split(b, validRows)
	return append(b, '}')
}

// BenchmarkRegister is the register handler on a 20k×32 inline body (about
// 5 MB): body read, decode, split build and content id. The same content
// is registered every iteration, so the registry does not grow.
func BenchmarkRegister(b *testing.B) {
	body := inlineRegisterBody(20000, 64, 32)
	h := NewServer(Config{}).Handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("register = %d: %s", rec.Code, rec.Body)
		}
	}
}
