package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dpz/internal/mat"
)

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
					sys, err := TopK(a, k, 7, 0)
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

// perturbedBasis returns the first k columns of ref with small random
// noise added and the result re-orthonormalized — the shape of candidate
// the basis cache hands to a similar tile.
func perturbedBasis(ref *mat.Dense, k int, eps float64, seed int64) *mat.Dense {
	n, _ := ref.Dims()
	rng := rand.New(rand.NewSource(seed))
	w := mat.NewDense(n, k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			w.Set(i, j, ref.At(i, j)+eps*rng.NormFloat64())
		}
	}
	orthonormalize(w)
	return w
}

// TestTopKWarmFewerSweepsThanCold is the warm-start regression: starting
// the subspace iteration from a slightly perturbed true basis must
// converge in strictly fewer sweeps than starting from a random subspace,
// while agreeing with the dense solver on the answer.
func TestTopKWarmFewerSweepsThanCold(t *testing.T) {
	const n, k = 400, 10
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Exp(-float64(i) / 20)
	}
	a := spdWithSpectrum(vals, 17)
	ref, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}

	// Cold baseline: a seeded random starting subspace (what TopK does),
	// expressed through TopKWarm so the sweep counts are comparable.
	rng := rand.New(rand.NewSource(99))
	cold := mat.NewDense(n, subspaceWidth(n, k))
	for i := range cold.Data() {
		cold.Data()[i] = rng.NormFloat64()
	}
	orthonormalize(cold)
	_, coldSweeps, err := TopKWarm(a, k, cold, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	warm := perturbedBasis(ref.Vectors, subspaceWidth(n, k), 1e-4, 5)
	sys, warmSweeps, err := TopKWarm(a, k, warm, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if warmSweeps >= coldSweeps {
		t.Fatalf("warm start took %d sweeps, cold start %d — warm must be strictly cheaper", warmSweeps, coldSweeps)
	}
	for i := 0; i < k; i++ {
		if math.Abs(sys.Values[i]-ref.Values[i]) > 1e-6 {
			t.Fatalf("warm eigenvalue %d = %v, SymEig says %v", i, sys.Values[i], ref.Values[i])
		}
	}
	subspaceAgrees(t, sys.Vectors, ref.Vectors, k, 1e-5)
}

// TestTopKWarmNilAndMismatch pins the argument contract: a nil or a
// wrong-shape warm basis is an error.
func TestTopKWarmNilAndMismatch(t *testing.T) {
	vals := make([]float64, 80)
	for i := range vals {
		vals[i] = math.Exp(-float64(i) / 8)
	}
	a := spdWithSpectrum(vals, 3)
	if _, _, err := TopKWarm(a, 4, nil, 7, 0); err == nil {
		t.Fatal("expected error for a nil warm basis")
	}
	if _, _, err := TopKWarm(a, 4, mat.NewDense(10, 4), 7, 0); err == nil {
		t.Fatal("expected error for mismatched warm basis rows")
	}
}
