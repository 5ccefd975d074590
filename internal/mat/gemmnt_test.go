package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestGemmNTIntoMatchesMulBits pins the bit-exactness contract documented
// on GemmNTInto: out = a·bᵀ must equal MulInto(out, a, b.T()) bit for bit,
// including on inputs dense with exact zeros (which MulInto skips) and
// negative zeros, across worker counts.
func TestGemmNTIntoMatchesMulBits(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {4, 8, 4}, {13, 17, 9}, {64, 31, 66}, {130, 50, 129},
	}
	for _, sh := range shapes {
		a := NewDense(sh.m, sh.k)
		b := NewDense(sh.n, sh.k)
		fill := func(d *Dense) {
			for i := range d.data {
				switch rng.Intn(5) {
				case 0:
					d.data[i] = 0
				case 1:
					d.data[i] = math.Copysign(0, -1)
				default:
					d.data[i] = rng.NormFloat64()
				}
			}
		}
		fill(a)
		fill(b)
		want := NewDense(sh.m, sh.n)
		MulInto(want, a, b.T(), 1)
		for _, w := range []int{1, 2, 8} {
			got := NewDense(sh.m, sh.n)
			// Poison the output to catch unwritten elements.
			for i := range got.data {
				got.data[i] = math.NaN()
			}
			GemmNTInto(got, a, b, w)
			for i := 0; i < sh.m; i++ {
				for j := 0; j < sh.n; j++ {
					g, wv := got.At(i, j), want.At(i, j)
					if math.Float64bits(g) != math.Float64bits(wv) {
						t.Fatalf("shape %dx%dx%d workers=%d: out[%d][%d] = %x want %x",
							sh.m, sh.k, sh.n, w, i, j, math.Float64bits(g), math.Float64bits(wv))
					}
				}
			}
		}
	}
}

func TestGemmNTIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape mismatch panic")
		}
	}()
	GemmNTInto(NewDense(2, 3), NewDense(2, 4), NewDense(3, 5), 1)
}
