package eigen

import (
	"math"
	"math/rand"
	"testing"

	"dpz/internal/mat"
)

// spdWithSpectrum builds an n×n SPD matrix with the given eigenvalues via a
// random orthogonal basis.
func spdWithSpectrum(vals []float64, seed int64) *mat.Dense {
	n := len(vals)
	rng := rand.New(rand.NewSource(seed))
	g := mat.NewDense(n, n)
	for i := range g.Data() {
		g.Data()[i] = rng.NormFloat64()
	}
	orthonormalize(g)
	lam := mat.NewDense(n, n)
	for i, v := range vals {
		lam.Set(i, i, v)
	}
	return mat.Mul(mat.Mul(g, lam), g.T())
}

func TestTopKMatchesFullDecomposition(t *testing.T) {
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = math.Exp(-float64(i) / 5) // well-separated decay
	}
	a := spdWithSpectrum(vals, 91)
	for _, k := range []int{1, 3, 10} {
		sys, err := TopK(a, k, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sys.Values) != k {
			t.Fatalf("k=%d: got %d values", k, len(sys.Values))
		}
		for i := 0; i < k; i++ {
			if math.Abs(sys.Values[i]-vals[i]) > 1e-6 {
				t.Fatalf("k=%d: eigenvalue %d = %v, want %v", k, i, sys.Values[i], vals[i])
			}
			// Residual ‖Av − λv‖ must be tiny.
			v := sys.Vectors.Col(i, nil)
			av := mat.MulVec(a, v)
			for r := range av {
				if math.Abs(av[r]-sys.Values[i]*v[r]) > 1e-6 {
					t.Fatalf("k=%d comp %d: eigen residual too large", k, i)
				}
			}
		}
	}
}

func TestTopKSmallMatrixUsesDensePath(t *testing.T) {
	a := spdWithSpectrum([]float64{5, 3, 1}, 92)
	sys, err := TopK(a, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys.Values[0]-5) > 1e-9 || math.Abs(sys.Values[1]-3) > 1e-9 {
		t.Fatalf("values = %v", sys.Values)
	}
}

func TestTopKValidation(t *testing.T) {
	a := mat.NewDense(4, 4)
	if _, err := TopK(a, 0, 1, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := TopK(a, 5, 1, 0); err == nil {
		t.Fatal("expected error for k>n")
	}
	if _, err := TopK(mat.NewDense(2, 3), 1, 1, 0); err == nil {
		t.Fatal("expected error for non-square")
	}
}

func TestTopKOrthonormalColumns(t *testing.T) {
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = 1 / float64(i+1)
	}
	a := spdWithSpectrum(vals, 93)
	sys, err := TopK(a, 6, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		vi := sys.Vectors.Col(i, nil)
		for j := i; j < 6; j++ {
			vj := sys.Vectors.Col(j, nil)
			var dot float64
			for r := range vi {
				dot += vi[r] * vj[r]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("vᵢ·vⱼ (%d,%d) = %v", i, j, dot)
			}
		}
	}
}

func TestOrthonormalizeDegenerate(t *testing.T) {
	// Two identical columns: the second must be replaced, not NaN'd.
	q := mat.NewDense(4, 2)
	for i := 0; i < 4; i++ {
		q.Set(i, 0, 1)
		q.Set(i, 1, 1)
	}
	orthonormalize(q)
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if math.IsNaN(q.At(i, j)) {
				t.Fatal("orthonormalize produced NaN")
			}
		}
	}
	var dot float64
	for i := 0; i < 4; i++ {
		dot += q.At(i, 0) * q.At(i, 1)
	}
	if math.Abs(dot) > 1e-9 {
		t.Fatalf("columns not orthogonal: dot=%v", dot)
	}
}
