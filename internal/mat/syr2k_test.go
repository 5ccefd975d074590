package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// syr2kCase is a random m×m triangle in rows of stride ld with b vector
// pairs beside it.
func syr2kCase(m, b, ld int, seed int64) (c, v, w []float64) {
	rng := rand.New(rand.NewSource(seed))
	c = make([]float64, m*ld)
	v = make([]float64, b*ld)
	w = make([]float64, b*ld)
	for _, s := range [][]float64{c, v, w} {
		for i := range s {
			s[i] = rng.NormFloat64()
		}
	}
	return c, v, w
}

// TestSyr2kLowerMatchesNaive compares the jammed update with the
// one-term-at-a-time loop, entry by entry, for ranks that leave every
// partial group of four, and checks that the upper triangle and the
// columns past m are untouched.
func TestSyr2kLowerMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ m, b int }{{1, 1}, {5, 3}, {17, 4}, {40, 9}, {64, 8}} {
		ld := tc.m + 3
		c, v, w := syr2kCase(tc.m, tc.b, ld, int64(tc.m*100+tc.b))
		want := append([]float64(nil), c...)
		for j := 0; j < tc.m; j++ {
			for k := 0; k <= j; k++ {
				var s float64
				for r := 0; r < tc.b; r++ {
					s += v[r*ld+j]*w[r*ld+k] + w[r*ld+j]*v[r*ld+k]
				}
				want[j*ld+k] -= s
			}
		}
		Syr2kLower(c, ld, tc.m, v, w, tc.b)
		for i := range c {
			j, k := i/ld, i%ld
			if k > j {
				if c[i] != want[i] {
					t.Fatalf("m=%d b=%d: entry (%d, %d) outside the triangle changed", tc.m, tc.b, j, k)
				}
				continue
			}
			if d := math.Abs(c[i] - want[i]); d > 1e-13*float64(tc.b)*(1+math.Abs(want[i])) {
				t.Fatalf("m=%d b=%d: entry (%d, %d) is %g off the naive sum", tc.m, tc.b, j, k, d)
			}
		}
	}
}

// TestSubRank2RowSplitBitIdentical: each entry's sum does not depend on
// the rest of the row, so updating a row in two pieces gives the bits
// of one call.
func TestSubRank2RowSplitBitIdentical(t *testing.T) {
	const m, b, ld = 37, 7, 40
	x, v, w := syr2kCase(1, b, ld, 5)
	x = x[:m]
	rng := rand.New(rand.NewSource(6))
	cv, cw := make([]float64, b), make([]float64, b)
	for r := range cv {
		cv[r], cw[r] = rng.NormFloat64(), rng.NormFloat64()
	}
	whole := append([]float64(nil), x...)
	SubRank2Row(whole, v, w, ld, cv, cw)
	split := append([]float64(nil), x...)
	SubRank2Row(split[:13], v, w, ld, cv, cw)
	SubRank2Row(split[13:], v[13:], w[13:], ld, cv, cw)
	for i := range whole {
		if math.Float64bits(whole[i]) != math.Float64bits(split[i]) {
			t.Fatalf("entry %d: split %v, whole %v", i, split[i], whole[i])
		}
	}
}

// BenchmarkSyr2kLower is the trailing update of the blocked reduction at
// its panel width, eight vector pairs, on the largest triangles it
// updates at n=256 and n=900.
func BenchmarkSyr2kLower(b *testing.B) {
	for _, m := range []int{248, 892} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			const rank = 8
			c, v, w := syr2kCase(m, rank, m+rank, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Syr2kLower(c, m+rank, m, v, w, rank)
			}
			b.ReportMetric(float64(2*rank*m*m)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
