package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dpz/internal/mat"
)

// reduceCases are the inputs of the blocked reduction's edge-case tests:
// orders around the panel width and the unblocked tail, the benchmark
// orders, a block-diagonal matrix whose zero rows fall inside panels,
// an exactly repeated spectrum and subnormal entries.
func reduceCases(t *testing.T) map[string]*mat.Dense {
	t.Helper()
	rng := rand.New(rand.NewSource(2701))
	nb, tail := reduceBlock, reduceTail
	sizes := []int{1, 2, 3, nb - 1, nb, nb + 1, tail - 1, tail, tail + 1, 2*nb + 3, tail + 2*nb + 3, 256, 300}
	cases := map[string]*mat.Dense{}
	for _, n := range sizes {
		cases[fmt.Sprintf("random-%d", n)] = randomSymmetric(n, rng)
	}
	cases["zero-rows-in-panels"] = panelBlockDiagonal(rng)

	// Three eigenvalues, each repeated exactly: 7 (×20), 2 (×30), 0 (×25).
	var spec []float64
	for _, r := range []struct {
		v float64
		k int
	}{{7, 20}, {2, 30}, {0, 25}} {
		for i := 0; i < r.k; i++ {
			spec = append(spec, r.v)
		}
	}
	cases["repeated"] = spdWithSpectrum(spec, 2702)

	// Subnormal off-diagonals: row and column tail+nb+nb/2 (inside a
	// panel) couple to the rest only through entries of order 1e-310,
	// so its reflector's scale is subnormal.
	n := tail + 4*nb
	sub := randomSymmetric(n, rng)
	s := tail + nb + nb/2
	for k := 0; k < n; k++ {
		if k != s {
			v := 1e-310 * rng.NormFloat64()
			sub.Set(s, k, v)
			sub.Set(k, s, v)
		}
	}
	cases["subnormal-row"] = sub
	return cases
}

// panelBlockDiagonal is a block-diagonal matrix of order tail + 4·nb
// whose blocks open at rows inside blocked panels (and one inside the
// unblocked tail): every such row has an all-zero left part, the
// reduction's scale == 0 branch, at every point of the reduction.
func panelBlockDiagonal(rng *rand.Rand) *mat.Dense {
	nb, tail := reduceBlock, reduceTail
	n := tail + 4*nb
	// Panels are [n−(p+1)·nb, n−p·nb−1] for p = 0, 1, …: open blocks in
	// the middle of panel 0, one row above panel 2's lowest row, and in
	// the tail.
	openers := []int{tail / 2, n - 3*nb + 1, n - nb - nb/2}
	a := mat.NewDense(n, n)
	bounds := append([]int{0}, openers...)
	bounds = append(bounds, n)
	for b := 0; b+1 < len(bounds); b++ {
		for i := bounds[b]; i < bounds[b+1]; i++ {
			for j := bounds[b]; j <= i; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
	}
	return a
}

// TestReduceEdgeCasesNearReference: on every edge case SymEig's
// eigenpairs are within round-off of the textbook solver's, and nothing
// is NaN.
func TestReduceEdgeCasesNearReference(t *testing.T) {
	for name, a := range reduceCases(t) {
		want, err := refSymEig(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := SymEig(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range got.Vectors.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite eigenvector entry", name)
			}
		}
		n, _ := a.Dims()
		nearReference(t, name, a, want, got, n)
	}
}

// TestReduceZeroRowsInPanels: a row whose left part is all zero when its
// reflector is generated, in the middle of a panel or in the tail, gets
// H = 0 and an exact-zero off-diagonal, so the back-transform skips it
// and the tridiagonal splits there.
func TestReduceZeroRowsInPanels(t *testing.T) {
	a := panelBlockDiagonal(rand.New(rand.NewSource(2703)))
	n, _ := a.Dims()
	nb, tail := reduceBlock, reduceTail
	z := append([]float64(nil), a.Data()...)
	h := make([]float64, n)
	e := make([]float64, n)
	reduce(z, h, e)
	for _, i := range []int{tail / 2, n - 3*nb + 1, n - nb - nb/2} {
		if h[i] != 0 || e[i] != 0 {
			t.Errorf("row %d opens a block: H = %g, off-diagonal %g, want both exactly 0", i, h[i], e[i])
		}
	}
	for i := 2; i < n; i++ {
		if h[i] == 0 && e[i] != 0 {
			t.Errorf("row %d: H = 0 with off-diagonal %g", i, e[i])
		}
	}
}

// TestReduceRepeatedEigenvalues: an exactly repeated spectrum comes back
// with each value's multiplicity, within round-off.
func TestReduceRepeatedEigenvalues(t *testing.T) {
	a := reduceCases(t)["repeated"]
	vals, err := SymEigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	tol, _ := oracleTol(a)
	want := []float64{7, 2, 0}
	counts := []int{20, 30, 25}
	i := 0
	for r, v := range want {
		for c := 0; c < counts[r]; c, i = c+1, i+1 {
			if d := math.Abs(vals[i] - v); !(d <= tol) {
				t.Fatalf("eigenvalue %d = %v, want %v within %g", i, vals[i], v, tol)
			}
		}
	}
}

// TestReduceEdgeCasesWorkersBitIdentical: on every edge case the
// spectrum-first solve, which reduces once and then splits its vector
// phases across workers, returns the same bits at workers {1, 2, 8} on
// both vector routes, and divide and conquer's bits are SymEig's.
// The reduction itself is serial; this pins that nothing downstream of
// it depends on the worker count either.
func TestReduceEdgeCasesWorkersBitIdentical(t *testing.T) {
	var names []string
	cases := reduceCases(t)
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := cases[name]
		n, _ := a.Dims()
		full, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{max(1, n/4), n} {
			var first *System
			for _, workers := range []int{1, 2, 8} {
				got, _, err := symEigTopK(a, fixedCount(k), 0, workers, n/2, topKGuardTol, nil)
				if err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", name, k, workers, err)
				}
				if first == nil {
					first = got
				} else if i := sameBits(got.Vectors.Data(), first.Vectors.Data()); i != -1 {
					t.Errorf("%s k=%d workers=%d: vectors differ from one worker's at %d", name, k, workers, i)
				}
				if i := sameBits(got.Values, full.Values); i != -1 {
					t.Errorf("%s k=%d workers=%d: eigenvalues differ from SymEig's at %d", name, k, workers, i)
				}
			}
			if k > n/2 {
				assertLeadingColumnsBitIdentical(t, name, full, first, k)
			}
		}
	}
}
