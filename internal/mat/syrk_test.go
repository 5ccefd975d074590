package mat

import (
	"math/rand"
	"testing"
)

// naiveGram is the reference AᵀA.
func naiveGram(a *Dense) *Dense {
	r, c := a.Dims()
	out := NewDense(c, c)
	for j := 0; j < c; j++ {
		for k := 0; k < c; k++ {
			var s float64
			for i := 0; i < r; i++ {
				s += a.At(i, j) * a.At(i, k)
			}
			out.Set(j, k, s)
		}
	}
	return out
}

func randomDense(r, c int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestSyrKMatchesNaive(t *testing.T) {
	// Shapes straddling the 64-column tile edge and the parallel cutoff.
	shapes := [][2]int{{3, 2}, {10, 7}, {50, 64}, {33, 65}, {200, 130}, {17, 129}}
	for _, s := range shapes {
		a := randomDense(s[0], s[1], int64(s[0]*1000+s[1]))
		got := SyrK(a, 4)
		want := naiveGram(a)
		if !Equal(got, want, 1e-9) {
			t.Fatalf("SyrK mismatch for %dx%d", s[0], s[1])
		}
	}
}

func TestSyrKDeterministicAcrossWorkers(t *testing.T) {
	a := randomDense(301, 190, 42)
	base := SyrK(a, 1)
	for _, w := range []int{2, 3, 8} {
		got := SyrK(a, w)
		for i, v := range got.Data() {
			if v != base.Data()[i] {
				t.Fatalf("workers=%d: entry %d differs: %v vs %v", w, i, v, base.Data()[i])
			}
		}
	}
}

func TestCovarianceWorkersIdentical(t *testing.T) {
	a := randomDense(400, 150, 7)
	c1, m1 := CovarianceW(a, 1)
	c8, m8 := CovarianceW(a, 8)
	for i := range m1 {
		if m1[i] != m8[i] {
			t.Fatalf("means differ at %d", i)
		}
	}
	for i, v := range c1.Data() {
		if v != c8.Data()[i] {
			t.Fatalf("covariance differs at %d: %v vs %v", i, v, c8.Data()[i])
		}
	}
	r1 := CorrelationW(a, 1)
	r8 := CorrelationW(a, 8)
	for i, v := range r1.Data() {
		if v != r8.Data()[i] {
			t.Fatalf("correlation differs at %d", i)
		}
	}
}

func BenchmarkSyrK(b *testing.B) {
	a := randomDense(2048, 1024, 1)
	b.ReportAllocs()
	b.SetBytes(int64(8 * a.Rows() * a.Cols()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SyrK(a, 0)
	}
}

// BenchmarkCovariance256x512 is the exact fit's Gram at the perfbench
// shape: a 256×512 field's DCT blocks, 512 samples × M=256 features.
func BenchmarkCovariance256x512(b *testing.B) {
	a := randomDense(512, 256, 1)
	means := ColMeans(a)
	cov := NewDense(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CovarianceCenteredInto(cov, a, means, nil, 0)
	}
}
