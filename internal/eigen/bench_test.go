package eigen

import (
	"fmt"
	"math/rand"
	"testing"

	"dpz/internal/mat"
)

func benchMatrix(n int) *mat.Dense {
	rng := rand.New(rand.NewSource(1))
	return randomSymmetric(n, rng)
}

func BenchmarkSymEig128(b *testing.B) {
	a := benchMatrix(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymEig256 is the eigensolve of the flat-spectrum benchmark
// workload: the covariance of a CLDHGH-like 256×512 field's DCT blocks.
func BenchmarkSymEig256(b *testing.B) {
	a := dctBlockCovariance(b, "CLDHGH", 2001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEig512(b *testing.B) {
	a := benchMatrix(512)
	for i := 0; i < b.N; i++ {
		if _, err := SymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigValues512(b *testing.B) {
	a := benchMatrix(512)
	for i := 0; i < b.N; i++ {
		if _, err := SymEigValues(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopK512x16(b *testing.B) {
	// SPD matrix with decaying spectrum so subspace iteration converges.
	rng := rand.New(rand.NewSource(2))
	g := mat.NewDense(512, 512)
	for i := range g.Data() {
		g.Data()[i] = rng.NormFloat64()
	}
	a := mat.Mul(g.T(), g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(a, 16, 1, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigValues256(b *testing.B) {
	a := dctBlockCovariance(b, "CLDHGH", 2001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigValues(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymEigTopK256 is the spectrum-first eigensolve of the
// low-rank benchmark workload: the covariance of a PHIS-like 256×512
// field's DCT blocks, with the k=42 vectors its default TVE selects.
func BenchmarkSymEigTopK256(b *testing.B) {
	a := dctBlockCovariance(b, "PHIS", 2003)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigTopK(a, fixedCount(42), 0, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymEigTopK256Flat is the eigensolve of the flat-spectrum
// benchmark workload as the exact fit runs it: the CLDHGH-like
// covariance with the k=254 of 256 vectors its default TVE selects,
// past the crossover, so by divide and conquer; at one and two workers.
func BenchmarkSymEigTopK256Flat(b *testing.B) {
	a := dctBlockCovariance(b, "CLDHGH", 2001)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SymEigTopK(a, fixedCount(254), 0, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSymEig900Flat is every eigenpair of the covariance dpzbench's
// flat compress fits: a CLDHGH-like 900×1800 field's DCT blocks, at one
// and two workers.
func BenchmarkSymEig900Flat(b *testing.B) {
	a := dctCovariance(b, "CLDHGH", 900, 1800, 2001)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SymEigTopK(a, func(vals []float64) int { return len(vals) }, 0, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchmarkReduce times the Householder reduction alone on a, from a
// fresh copy each iteration.
func benchmarkReduce(b *testing.B, a *mat.Dense) {
	n, _ := a.Dims()
	z := make([]float64, n*n)
	h := make([]float64, n)
	e := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(z, a.Data())
		reduce(z, h, e)
	}
}

// BenchmarkReduce256LowRank is the reduction of the low-rank benchmark
// workload's covariance (PHIS-like, 256×512).
func BenchmarkReduce256LowRank(b *testing.B) {
	benchmarkReduce(b, dctBlockCovariance(b, "PHIS", 2003))
}

// BenchmarkReduce256Flat is the reduction of the flat benchmark
// workload's covariance (CLDHGH-like, 256×512).
func BenchmarkReduce256Flat(b *testing.B) {
	benchmarkReduce(b, dctBlockCovariance(b, "CLDHGH", 2001))
}

// BenchmarkReduce900 is the reduction at dpzbench's order: the
// covariance of a PHIS-like 900×1800 field's DCT blocks.
func BenchmarkReduce900(b *testing.B) {
	benchmarkReduce(b, dctCovariance(b, "PHIS", 900, 1800, 2003))
}
