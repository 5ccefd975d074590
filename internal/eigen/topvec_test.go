package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dpz/internal/mat"
)

// fixedCount returns a SymEigTopK count callback that asks for k vectors.
func fixedCount(k int) func([]float64) int {
	return func([]float64) int { return k }
}

// topKCounts are the vector counts each oracle case is solved at: one,
// a low-rank selection, and the crossover itself.
func topKCounts(n int) []int {
	out := []int{1}
	for _, k := range []int{42, n * topKInverseMaxNum / topKInverseMaxDen} {
		if k >= 1 && k <= n && k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// TestSymEigTopKValuesBitIdentical: the spectrum count sees, and the one
// returned, is SymEigValues's bit for bit on every route.
func TestSymEigTopKValuesBitIdentical(t *testing.T) {
	for name, a := range oracleCases(t) {
		want, err := SymEigValues(a)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := a.Dims()
		for _, k := range topKCounts(n) {
			var seen []float64
			sys, err := SymEigTopK(a, func(vals []float64) int {
				seen = append([]float64(nil), vals...)
				return k
			}, 0, 2, nil)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if i := sameBits(seen, want); i != -1 {
				t.Errorf("%s k=%d: count saw values differing at %d", name, k, i)
			}
			if i := sameBits(sys.Values, want); i != -1 {
				t.Errorf("%s k=%d: returned values differ at %d", name, k, i)
			}
			if r, c := sys.Vectors.Dims(); r != n || c != k {
				t.Errorf("%s k=%d: vectors %dx%d", name, k, r, c)
			}
		}
	}
}

// TestSymEigTopKVectorsMatchSymEig compares each inverse-iteration vector
// with SymEig's. A vector whose eigenvalue is separated from the rest of
// the spectrum by more than 1e-6·‖A‖ must equal SymEig's up to sign
// within 1e-10, and carry SymEig's sign when SymEig's last component is
// not negligible; one inside a tighter cluster (the exactly degenerate
// eigenvalues of the block-diagonal case) is defined only up to a
// rotation of its cluster, so it must lie in the span of SymEig's
// cluster vectors within 1e-10.
func TestSymEigTopKVectorsMatchSymEig(t *testing.T) {
	for name, a := range oracleCases(t) {
		full, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := a.Dims()
		var norm float64
		for _, v := range full.Values {
			norm = max(norm, math.Abs(v))
		}
		k := topKCounts(n)[len(topKCounts(n))-1]
		got, err := SymEigTopK(a, fixedCount(k), 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		u := make([]float64, n)
		v := make([]float64, n)
		for j := 0; j < k; j++ {
			got.Vectors.Col(j, v)
			var cluster []int
			for i, lam := range full.Values {
				if math.Abs(lam-full.Values[j]) <= 1e-6*norm {
					cluster = append(cluster, i)
				}
			}
			if len(cluster) == 1 {
				full.Vectors.Col(j, u)
				if mat.Dot(u, v) < 0 {
					if math.Abs(u[n-1]) >= signMinLast {
						t.Fatalf("%s: vector %d has the opposite sign to SymEig's (last component %g)", name, j, u[n-1])
					}
					for i := range u {
						u[i] = -u[i]
					}
				}
				for i := range u {
					if d := math.Abs(u[i] - v[i]); d > 1e-10 {
						t.Fatalf("%s: vector %d entry %d differs from SymEig's by %g", name, j, i, d)
					}
				}
				continue
			}
			// Distance of v from the cluster's eigenspace.
			rest := append([]float64(nil), v...)
			for _, c := range cluster {
				full.Vectors.Col(c, u)
				mat.Axpy(rest, u, -mat.Dot(u, v))
			}
			if d := math.Sqrt(mat.Dot(rest, rest)); d > 1e-10 {
				t.Fatalf("%s: vector %d lies %g outside its %d-fold eigenspace", name, j, d, len(cluster))
			}
		}
	}
}

// TestSymEigTopKResidualAndOrthogonality bounds ‖Av − λv‖ by
// 1e-13·‖A‖ and |VᵀV − I| by 1e-13 on every oracle case, all of which
// inverse iteration must serve without falling back.
func TestSymEigTopKResidualAndOrthogonality(t *testing.T) {
	for name, a := range oracleCases(t) {
		n, _ := a.Dims()
		for _, k := range topKCounts(n) {
			sys, inverse, err := symEigTopK(a, fixedCount(k), 0, 1, n*topKInverseMaxNum/topKInverseMaxDen, topKGuardTol, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Every count within the crossover (none at n ≤ 2) must be
			// served by inverse iteration, or this test checks nothing.
			if !inverse && k <= n*topKInverseMaxNum/topKInverseMaxDen {
				t.Errorf("%s k=%d: inverse iteration fell back", name, k)
			}
			res, orth := eigenErrors(a, sys, k)
			if res > 1e-13 || orth > 1e-13 {
				t.Errorf("%s k=%d: relative residual %g, orthogonality error %g", name, k, res, orth)
			}
		}
	}
}

// eigenErrors returns the largest ‖Av − λv‖₂/max|λ| and |vᵢᵀvⱼ − δᵢⱼ|
// over the first k pairs of sys.
func eigenErrors(a *mat.Dense, sys *System, k int) (res, orth float64) {
	n, _ := a.Dims()
	var norm float64
	for _, v := range sys.Values {
		norm = max(norm, math.Abs(v))
	}
	if norm == 0 {
		norm = 1
	}
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = sys.Vectors.Col(j, make([]float64, n))
		av := mat.MulVec(a, cols[j])
		mat.Axpy(av, cols[j], -sys.Values[j])
		res = max(res, math.Sqrt(mat.Dot(av, av))/norm)
	}
	for i := range cols {
		for j := 0; j <= i; j++ {
			g := mat.Dot(cols[i], cols[j])
			if i == j {
				g--
			}
			orth = max(orth, math.Abs(g))
		}
	}
	return res, orth
}

// TestSymEigTopKInverseWorkersBitIdentical: the back-transform splits the
// inverse-iteration vectors across workers without changing a bit.
func TestSymEigTopKInverseWorkersBitIdentical(t *testing.T) {
	for name, a := range oracleCases(t) {
		n, _ := a.Dims()
		for _, k := range topKCounts(n) {
			want, _, err := symEigTopK(a, fixedCount(k), 0, 1, n, topKGuardTol, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, _, err := symEigTopK(a, fixedCount(k), 0, workers, n, topKGuardTol, nil)
				if err != nil {
					t.Fatal(err)
				}
				if i := sameBits(got.Vectors.Data(), want.Vectors.Data()); i != -1 {
					t.Errorf("%s k=%d workers=%d: vectors differ from one worker's at %d", name, k, workers, i)
				}
			}
		}
	}
}

// TestSymEigTopKAboveCrossoverIsSymEig: past the crossover the vectors
// come from divide and conquer and carry SymEig's bits.
func TestSymEigTopKAboveCrossoverIsSymEig(t *testing.T) {
	for name, a := range oracleCases(t) {
		full, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := a.Dims()
		k := n*topKInverseMaxNum/topKInverseMaxDen + 1
		if k > n {
			continue
		}
		got, err := SymEigTopK(a, fixedCount(k), 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertLeadingColumnsBitIdentical(t, name, full, got, k)
	}
}

// TestSymEigTopKExtraKeepsRoute: extra vectors past the kept count do
// not move the kept ones by a bit, even where the kept count is inverse
// iteration's and the total is past the crossover.
func TestSymEigTopKExtraKeepsRoute(t *testing.T) {
	for name, a := range oracleCases(t) {
		n, _ := a.Dims()
		k := max(1, n*topKInverseMaxNum/topKInverseMaxDen)
		want, err := SymEigTopK(a, fixedCount(k), 0, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SymEigTopK(a, fixedCount(k), 8, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, c := got.Vectors.Dims(); c != min(k+8, n) {
			t.Fatalf("%s: %d vectors, want %d", name, c, min(k+8, n))
		}
		assertLeadingColumnsBitIdentical(t, name, got, want, k)
	}
}

// TestSymEigTopKMarginGuardKeepsRoute: a guard tolerance the kept
// inverse-iteration vectors meet but a margin vector misses leaves the
// kept vectors on inverse iteration, with the bits of a solve without
// the margin, and ends the margin before the rejected vector. The
// tolerance is found by bisection between one no vector meets and one
// every vector meets.
func TestSymEigTopKMarginGuardKeepsRoute(t *testing.T) {
	const extra = 8
	found := 0
	for name, a := range oracleCases(t) {
		n, _ := a.Dims()
		for _, keep := range []int{1, 16} {
			kv := min(keep+extra, n)
			if keep > n || kv == keep {
				continue
			}
			lo, hi := 1e-30, 1.0
			for hi > lo*(1+1e-9) {
				tol := math.Sqrt(lo * hi)
				got, inverse, err := symEigTopK(a, fixedCount(keep), extra, 1, n, tol, nil)
				if err != nil {
					t.Fatal(err)
				}
				cols := got.Vectors.Cols()
				if !inverse {
					lo = tol
					continue
				}
				if cols < keep {
					t.Fatalf("%s keep=%d tol=%g: inverse iteration kept %d vectors", name, keep, tol, cols)
				}
				if cols == kv {
					hi = tol
					continue
				}
				want, inverse, err := symEigTopK(a, fixedCount(keep), 0, 1, n, tol, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !inverse {
					t.Fatalf("%s keep=%d tol=%g: the solve without a margin left inverse iteration", name, keep, tol)
				}
				assertLeadingColumnsBitIdentical(t, name, want, colsOf(got, keep), keep)
				found++
				break
			}
		}
	}
	if found == 0 {
		t.Fatal("no case had a tolerance between the kept vectors' guard and the margin's")
	}
}

// colsOf returns sys with only its k leading vectors.
func colsOf(sys *System, k int) *System {
	n, _ := sys.Vectors.Dims()
	v := mat.NewDense(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			v.Set(i, j, sys.Vectors.At(i, j))
		}
	}
	return &System{Values: sys.Values, Vectors: v}
}

// TestSymEigTopKGuardFallback forces the guard to reject the inverse
// iteration result (a negative tolerance no residual meets): the solve must
// fall back to divide and conquer and return SymEig's bits.
func TestSymEigTopKGuardFallback(t *testing.T) {
	for name, a := range oracleCases(t) {
		full, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := a.Dims()
		k := min(n, 5)
		got, inverse, err := symEigTopK(a, fixedCount(k), 0, 1, n, -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inverse {
			t.Fatalf("%s: a negative guard tolerance accepted the inverse iteration", name)
		}
		assertLeadingColumnsBitIdentical(t, name, full, got, k)
	}
}

func assertLeadingColumnsBitIdentical(t *testing.T, name string, full, got *System, k int) {
	t.Helper()
	n, _ := full.Vectors.Dims()
	if r, c := got.Vectors.Dims(); r != n || c != k {
		t.Fatalf("%s: vectors %dx%d, want %dx%d", name, r, c, n, k)
	}
	for j := 0; j < k; j++ {
		want := full.Vectors.Col(j, make([]float64, n))
		have := got.Vectors.Col(j, make([]float64, n))
		if i := sameBits(have, want); i != -1 {
			t.Fatalf("%s: column %d differs from SymEig's at row %d", name, j, i)
		}
	}
}

func TestSymEigTopKEdgeCases(t *testing.T) {
	if _, err := SymEigTopK(mat.NewDense(2, 3), fixedCount(1), 0, 1, nil); err == nil {
		t.Fatal("non-square input accepted")
	}
	sys, err := SymEigTopK(mat.NewDense(0, 0), fixedCount(1), 0, 1, nil)
	if err != nil || len(sys.Values) != 0 {
		t.Fatalf("empty input: %v, %v", sys, err)
	}
	// Counts clamp to [0, n]; zero vectors still returns the spectrum.
	a := randomSymmetric(6, rand.New(rand.NewSource(7)))
	for _, tc := range []struct{ ask, want int }{{-3, 0}, {0, 0}, {9, 6}} {
		sys, err := SymEigTopK(a, fixedCount(tc.ask), 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, c := sys.Vectors.Dims(); c != tc.want || len(sys.Values) != 6 {
			t.Fatalf("count %d: %d vectors, %d values", tc.ask, c, len(sys.Values))
		}
	}
	// The zero matrix has no scale to iterate against: divide and
	// conquer answers, with SymEig's identity basis.
	z := mat.NewDense(4, 4)
	sys, err = SymEigTopK(z, fixedCount(2), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := SymEig(z)
	assertLeadingColumnsBitIdentical(t, "zero", full, sys, 2)
}

// TestSymEigTopKDeterministic: the start vectors are fixed, so repeated
// solves agree bit for bit.
func TestSymEigTopKDeterministic(t *testing.T) {
	a := dctBlockCovariance(t, "PHIS", 2003)
	first, err := SymEigTopK(a, fixedCount(42), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := SymEigTopK(a, fixedCount(42), 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if j := sameBits(first.Vectors.Data(), again.Vectors.Data()); j != -1 {
			t.Fatalf("run %d differs at %d", i, j)
		}
	}
}

func ExampleSymEigTopK() {
	a := mat.NewDense(3, 3)
	for i, v := range []float64{4, 1, 0, 1, 3, 0, 0, 0, 1} {
		a.Data()[i] = v
	}
	sys, _ := SymEigTopK(a, func(vals []float64) int {
		// Keep the eigenvalues above 2.
		k := 0
		for k < len(vals) && vals[k] > 2 {
			k++
		}
		return k
	}, 0, 1, nil)
	_, k := sys.Vectors.Dims()
	fmt.Printf("%d values, %d vectors\n", len(sys.Values), k)
	// Output: 3 values, 2 vectors
}
