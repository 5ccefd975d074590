package eigen

import (
	"fmt"
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
		sys, err := TopK(a, k, 7, 0, nil)
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
	sys, err := TopK(a, 2, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys.Values[0]-5) > 1e-9 || math.Abs(sys.Values[1]-3) > 1e-9 {
		t.Fatalf("values = %v", sys.Values)
	}
}

func TestTopKValidation(t *testing.T) {
	a := mat.NewDense(4, 4)
	if _, err := TopK(a, 0, 1, 0, nil); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := TopK(a, 5, 1, 0, nil); err == nil {
		t.Fatal("expected error for k>n")
	}
	if _, err := TopK(mat.NewDense(2, 3), 1, 1, 0, nil); err == nil {
		t.Fatal("expected error for non-square")
	}
}

func TestTopKOrthonormalColumns(t *testing.T) {
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = 1 / float64(i+1)
	}
	a := spdWithSpectrum(vals, 93)
	sys, err := TopK(a, 6, 3, 0, nil)
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

// subspaceAgrees checks that each of the reference leading eigenvectors
// lies (almost) inside the span of got's columns: ‖Qᵀv‖ ≈ 1 for every
// reference vector v. Comparing spans instead of individual vectors keeps
// the check meaningful when eigenvalues cluster (any orthonormal basis of
// the same invariant subspace is a correct answer).
func subspaceAgrees(t *testing.T, got *mat.Dense, ref *mat.Dense, k int, tol float64) {
	t.Helper()
	n, kc := got.Dims()
	for j := 0; j < k; j++ {
		var norm2 float64
		for c := 0; c < kc; c++ {
			var dot float64
			for r := 0; r < n; r++ {
				dot += got.At(r, c) * ref.At(r, j)
			}
			norm2 += dot * dot
		}
		if math.Abs(norm2-1) > tol {
			t.Fatalf("reference eigenvector %d lies outside the computed subspace: ‖Qᵀv‖² = %v", j, norm2)
		}
	}
}

// TestTopKAgreesWithSymEigRandomized cross-checks the truncated solver
// against the dense eigensolver on randomized symmetric matrices across
// sizes and spectrum shapes, through both the dense fall-through route
// (small n) and the subspace-iteration route (large n, small k).
func TestTopKAgreesWithSymEigRandomized(t *testing.T) {
	spectra := map[string]func(i, n int) float64{
		"exp-fast":  func(i, n int) float64 { return math.Exp(-float64(i) / 3) },
		"exp-slow":  func(i, n int) float64 { return math.Exp(-float64(i) / 25) },
		"power-law": func(i, n int) float64 { return 1 / math.Pow(float64(i+1), 2) },
	}
	for _, n := range []int{40, 120, 300} {
		for name, gen := range spectra {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				vals := make([]float64, n)
				for i := range vals {
					// Floor the tail: exp(-100) eigenvalues are denormal
					// territory no real covariance matrix produces.
					vals[i] = math.Max(gen(i, n), 1e-12)
				}
				a := spdWithSpectrum(vals, int64(n)*31+int64(len(name)))
				ref, err := SymEig(a)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 5, 12} {
					if k > n/8 && n > 256 {
						continue // would route dense anyway; covered by small n
					}
					sys, err := TopK(a, k, 7, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < k; i++ {
						if math.Abs(sys.Values[i]-ref.Values[i]) > 1e-6*(1+ref.Values[0]) {
							t.Fatalf("k=%d: eigenvalue %d = %v, SymEig says %v", k, i, sys.Values[i], ref.Values[i])
						}
					}
					subspaceAgrees(t, sys.Vectors, ref.Vectors, k, 1e-5)
				}
			})
		}
	}
}
