package eigen

// Frozen copies of the eigensolver kernels as they were before the
// cache-friendly rewrite: the column-walking tred2/tqli and the separate
// eigenvalues-only tred2Values/tqliValues. They are the textbook oracle
// for the production kernels. The blocked reduction sums in another
// order, so the production eigenpairs are held within a round-off
// tolerance of these (nearReference); tqli is unchanged and must still
// reproduce refTqli and refTqliValues bit for bit. Across routes and
// worker counts the production solver stays bit-identical to itself.
// Do not edit the ref* kernels.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dpz/internal/blockio"
	"dpz/internal/dataset"
	"dpz/internal/mat"
	"dpz/internal/transform"
)

// oracleCases are the inputs the production kernels must match the
// frozen ones on, bit for bit.
func oracleCases(t *testing.T) map[string]*mat.Dense {
	t.Helper()
	cases := map[string]*mat.Dense{}
	rng := rand.New(rand.NewSource(1201))
	for _, n := range []int{1, 2, 3, 127, 256} {
		cases[fmt.Sprintf("random-%d", n)] = randomSymmetric(n, rng)
	}
	cases["block-diagonal"] = blockDiagonal(rng)
	for _, field := range []struct {
		name string
		seed int64
	}{{"CLDHGH", 2001}, {"PHIS", 2003}} {
		cases[field.name+"-256x512"] = dctBlockCovariance(t, field.name, field.seed)
	}
	return cases
}

// blockDiagonal builds a symmetric matrix of random diagonal blocks with
// exact-zero entries between them: rows that open a block have an
// all-zero left part (tred2's scale == 0 branch, which leaves d[i] == 0
// for the accumulation phase to skip), and the tridiagonal form has
// exact-zero off-diagonals where tqli splits. The 1×1 blocks and the
// repeated diagonal entries add exactly degenerate eigenvalues.
func blockDiagonal(rng *rand.Rand) *mat.Dense {
	sizes := []int{1, 3, 1, 1, 5, 2, 8, 1, 4}
	n := 0
	for _, s := range sizes {
		n += s
	}
	a := mat.NewDense(n, n)
	off := 0
	for bi, s := range sizes {
		for i := 0; i < s; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				if i == j && s == 1 {
					v = float64(bi % 3)
				}
				a.Set(off+i, off+j, v)
				a.Set(off+j, off+i, v)
			}
		}
		off += s
	}
	return a
}

// dctBlockCovariance is the covariance Stage 2 eigensolves for a 256×512
// synthetic CESM field: blocks are its rows, DCT-transformed, with the
// DCT coefficient positions as samples.
func dctBlockCovariance(t testing.TB, name string, seed int64) *mat.Dense {
	return dctCovariance(t, name, 256, 512, seed)
}

// dctCovariance is dctBlockCovariance for a rows×cols field, whose
// covariance has order rows.
func dctCovariance(t testing.TB, name string, rows, cols int, seed int64) *mat.Dense {
	t.Helper()
	f := dataset.CESM(name, rows, cols, seed)
	shape, err := blockio.ShapeFor(f.Dims, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := blockio.Decompose(f.Data, shape)
	if err != nil {
		t.Fatal(err)
	}
	transform.ForwardRows(blocks.Data(), shape.M, shape.N, 1)
	x := blocks.T()
	cov := mat.NewDense(shape.M, shape.M)
	mat.CovarianceCenteredInto(cov, x, mat.ColMeans(x), nil, 1)
	return cov
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return -2
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// oracleTol is the round-off tolerance of the production solver against
// the textbook oracle on a: 64·n·ε·‖A‖₁, and 64·n·ε for orthonormality.
func oracleTol(a *mat.Dense) (tol, orthTol float64) {
	n, _ := a.Dims()
	var norm1 float64
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += math.Abs(a.At(i, j))
		}
		norm1 = max(norm1, s)
	}
	orthTol = 64 * float64(n) * 0x1p-52
	return orthTol * norm1, orthTol
}

// nearReference checks the leading k pairs of got against the oracle's
// want on a: eigenvalues within oracleTol, eigen-equation residuals
// ‖Av − λv‖₂ within it and orthonormality within 64·n·ε.
//
// Signs are not compared. The QL sweep fixes each vector's sign through
// its rotation sequence, and on a tridiagonal that differs from the
// reference's only by round-off (with the same sign pattern) that
// sequence can negate a vector however well separated its eigenvalue:
// on random-256 five of the six smallest pairs, 0.4–1.5 apart, come out
// negated. The reference's sign is a property of its summation order,
// not of the eigenvector. Within this solver the sign is pinned: both
// vector routes adopt the QL sweep's sign
// (TestSymEigTopKVectorsMatchSymEig), and the routes and worker counts
// agree bit for bit.
func nearReference(t *testing.T, name string, a *mat.Dense, want, got *System, k int) {
	t.Helper()
	n, _ := a.Dims()
	tol, orthTol := oracleTol(a)
	for i := 0; i < k; i++ {
		if d := math.Abs(got.Values[i] - want.Values[i]); !(d <= tol) {
			t.Errorf("%s: eigenvalue %d is %g from the reference, tolerance %g", name, i, d, tol)
			return
		}
	}
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = got.Vectors.Col(j, make([]float64, n))
		av := mat.MulVec(a, cols[j])
		mat.Axpy(av, cols[j], -got.Values[j])
		if r := math.Sqrt(mat.Dot(av, av)); !(r <= tol) {
			t.Errorf("%s: pair %d has residual %g, tolerance %g", name, j, r, tol)
			return
		}
	}
	for i := range cols {
		for j := 0; j <= i; j++ {
			g := mat.Dot(cols[i], cols[j])
			if i == j {
				g--
			}
			if !(math.Abs(g) <= orthTol) {
				t.Errorf("%s: vectors %d and %d are orthonormal to %g, tolerance %g", name, i, j, math.Abs(g), orthTol)
				return
			}
		}
	}
}

// TestSymEigBitIdenticalToReference: SymEig's eigenpairs are within
// round-off of the frozen textbook solver's (nearReference) on every
// oracle case; its bits are pinned across routes and workers by
// TestSymEigTopKWorkersBitIdenticalToReference.
func TestSymEigBitIdenticalToReference(t *testing.T) {
	for name, a := range oracleCases(t) {
		want, err := refSymEig(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := SymEig(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, _ := a.Dims()
		nearReference(t, name, a, want, got, n)
	}
}

// TestSymEigValuesBitIdenticalToReference: SymEigValues's eigenvalues
// are SymEig's bit for bit and within round-off of the frozen
// eigenvalues-only solver's.
func TestSymEigValuesBitIdenticalToReference(t *testing.T) {
	for name, a := range oracleCases(t) {
		want, err := refSymEigValues(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := SymEigValues(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full, err := SymEig(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i := sameBits(got, full.Values); i != -1 {
			t.Errorf("%s: eigenvalues differ from SymEig's at %d", name, i)
		}
		tol, _ := oracleTol(a)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); !(d <= tol) {
				t.Errorf("%s: eigenvalue %d is %g from the reference, tolerance %g", name, i, d, tol)
			}
		}
	}
}

// TestTqliBitIdenticalToReference drives the QL iteration the way the
// divide-and-conquer leaves run it, its rotations applied to the rows of
// an identity, on tridiagonals with subnormal entries, where a rotation's
// hypotenuse underflows to exactly zero (the r == 0 split branch, which
// breaks a sweep midway and which no dense input above reaches). The
// rows must end as the transpose of the reference's accumulator, and the
// values-only run must match refTqliValues.
func TestTqliBitIdenticalToReference(t *testing.T) {
	for _, tc := range []struct{ d, e []float64 }{
		{[]float64{1e-310, 0, -1e-310, 1e-300}, []float64{1e-300, 1e-300, 1e-310, -1}},
		{[]float64{1e-300, -1e-310, 1e-310, 1e-300}, []float64{1e-310, -1e-310, 1e-310, 1}},
		{[]float64{3, 2, 1e-310, 5e-324, 5e-324}, []float64{-1e-310, 0.5, 2, 1e-300, 1e+300}},
	} {
		n := len(tc.d)
		id := make([]float64, n*n)
		for i := 0; i < n; i++ {
			id[i*n+i] = 1
		}
		wd, we, wz := slices.Clone(tc.d), slices.Clone(tc.e), mat.NewDenseData(n, n, slices.Clone(id))
		if err := refTqli(wd, we, wz); err != nil {
			t.Fatal(err)
		}
		zt := slices.Clone(id)
		gd, ge := slices.Clone(tc.d), slices.Clone(tc.e)
		if err := tqli(gd, ge, func(i int, s, c float64) { rotateRows(zt, n, i, s, c) }); err != nil {
			t.Fatal(err)
		}
		if sameBits(gd, wd) != -1 || sameBits(ge, we) != -1 || sameBits(zt, wz.T().Data()) != -1 {
			t.Errorf("d=%v e=%v: tqli with rotateRows differs from the reference", tc.d, tc.e)
		}
		vd, ve := slices.Clone(tc.d), slices.Clone(tc.e)
		if err := refTqliValues(vd, ve); err != nil {
			t.Fatal(err)
		}
		gd, ge = slices.Clone(tc.d), slices.Clone(tc.e)
		if err := tqli(gd, ge, nil); err != nil {
			t.Fatal(err)
		}
		if sameBits(gd, vd) != -1 || sameBits(ge, ve) != -1 {
			t.Errorf("d=%v e=%v: values-only tqli differs from the reference", tc.d, tc.e)
		}
	}
}

// TestSymEigTopKWorkersBitIdenticalToReference: divide and conquer
// (forced for every count by a zero crossover) returns SymEig's
// eigenvalues and leading eigenvectors bit for bit at every worker
// count, and those are within round-off of the frozen solver's. The
// oracle cases include n ∈ {1, 2, 3}, below the leaf size, and the
// block-diagonal matrix, whose zero reflectors the back-transform skips
// and whose tridiagonal splits.
func TestSymEigTopKWorkersBitIdenticalToReference(t *testing.T) {
	for name, a := range oracleCases(t) {
		ref, err := refSymEig(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		want, err := SymEig(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, _ := a.Dims()
		nearReference(t, name, a, ref, want, n)
		for _, workers := range []int{1, 2, 8} {
			for _, k := range []int{1, n/2 + 1, n} {
				got, inverse, err := symEigTopK(a, fixedCount(k), 0, workers, 0, topKGuardTol, nil)
				if err != nil {
					t.Fatalf("%s workers=%d k=%d: %v", name, workers, k, err)
				}
				if inverse {
					t.Fatalf("%s workers=%d k=%d: took inverse iteration", name, workers, k)
				}
				if i := sameBits(got.Values, want.Values); i != -1 {
					t.Errorf("%s workers=%d k=%d: eigenvalues differ at %d", name, workers, k, i)
				}
				assertLeadingColumnsBitIdentical(t, fmt.Sprintf("%s workers=%d", name, workers), want, got, k)
			}
			got, err := SymEigTopK(a, fixedCount(n), 0, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(got.Vectors.Data(), want.Vectors.Data()); i != -1 {
				t.Errorf("%s workers=%d: SymEigTopK(n) vectors differ at %d", name, workers, i)
			}
		}
	}
}

// TestTopKDenseAboveHalfIsReference: TopK's dense side at k > n/2 takes
// SymEigTopK's divide and conquer, so its k pairs are SymEig's leading
// pairs bit for bit at every worker count, and within round-off of the
// frozen solver's.
func TestTopKDenseAboveHalfIsReference(t *testing.T) {
	for name, a := range oracleCases(t) {
		n, _ := a.Dims()
		k := n/2 + 1
		ref, err := refSymEig(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		want, err := SymEig(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range []int{1, 2, 8} {
			got, err := TopK(a, k, 1, w, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i := sameBits(got.Values, want.Values[:k]); i != -1 {
				t.Fatalf("%s workers=%d: eigenvalue %d differs from SymEig's", name, w, i)
			}
			for j := 0; j < k; j++ {
				if i := sameBits(got.Vectors.Col(j, nil), want.Vectors.Col(j, nil)); i != -1 {
					t.Fatalf("%s workers=%d: column %d differs from SymEig's at row %d", name, w, j, i)
				}
			}
			nearReference(t, fmt.Sprintf("%s workers=%d", name, w), a, ref, got, k)
		}
	}
}

// TestSymEigDoesNotModifyInput guards the pooled workspace: every route
// must touch only it, on one worker and on two.
func TestSymEigDoesNotModifyInput(t *testing.T) {
	a := randomSymmetric(31, rand.New(rand.NewSource(1202)))
	orig := a.Clone()
	if _, err := SymEig(a); err != nil {
		t.Fatal(err)
	}
	if _, err := SymEigValues(a); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		for _, k := range []int{3, 31} { // inverse iteration, divide and conquer
			if _, _, err := symEigTopK(a, fixedCount(k), 0, workers, 15, topKGuardTol, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if i := sameBits(a.Data(), orig.Data()); i != -1 {
		t.Fatalf("input modified at %d", i)
	}
}

// refSymEig is SymEig built on the frozen kernels.
func refSymEig(a *mat.Dense) (*System, error) {
	n, _ := a.Dims()
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(z, d, e)
	if err := refTqli(d, e, z); err != nil {
		return nil, err
	}
	sys := &System{Values: d, Vectors: z}
	refSortDescending(sys)
	return sys, nil
}

// refSymEigValues is SymEigValues built on the frozen kernels.
func refSymEigValues(a *mat.Dense) ([]float64, error) {
	n, _ := a.Dims()
	work := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2Values(work, d, e)
	if err := refTqliValues(d, e); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	return d, nil
}

// refSortDescending is the pre-rewrite System.sortDescending, which read
// eigenvectors from the columns of a row-major accumulator.
func refSortDescending(s *System) {
	n := len(s.Values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Values[idx[a]] > s.Values[idx[b]] })
	vals := make([]float64, n)
	vecs := mat.NewDense(n, n)
	for newJ, oldJ := range idx {
		vals[newJ] = s.Values[oldJ]
		for i := 0; i < n; i++ {
			vecs.Set(i, newJ, s.Vectors.At(i, oldJ))
		}
	}
	s.Values = vals
	s.Vectors = vecs
}

// refTred2 reduces the symmetric matrix stored in z to tridiagonal form using
// Householder reflections, accumulating the transform in z. On return d
// holds the diagonal and e the sub-diagonal (e[0] is unused/zero).
func refTred2(z *mat.Dense, d, e []float64) {
	n := len(d)
	a := z.Data()
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a[i*n+k])
			}
			if scale == 0 {
				e[i] = a[i*n+l]
			} else {
				for k := 0; k <= l; k++ {
					a[i*n+k] /= scale
					h += a[i*n+k] * a[i*n+k]
				}
				f := a[i*n+l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				a[i*n+l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					a[j*n+i] = a[i*n+j] / h
					g = 0
					for k := 0; k <= j; k++ {
						g += a[j*n+k] * a[i*n+k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k*n+j] * a[i*n+k]
					}
					e[j] = g / h
					f += e[j] * a[i*n+j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = a[i*n+j]
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						a[j*n+k] -= f*e[k] + g*a[i*n+k]
					}
				}
			}
		} else {
			e[i] = a[i*n+l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += a[i*n+k] * a[k*n+j]
				}
				for k := 0; k <= l; k++ {
					a[k*n+j] -= g * a[k*n+i]
				}
			}
		}
		d[i] = a[i*n+i]
		a[i*n+i] = 1
		for j := 0; j <= l; j++ {
			a[j*n+i] = 0
			a[i*n+j] = 0
		}
	}
}

// refTqli diagonalizes a symmetric tridiagonal matrix (diagonal d,
// sub-diagonal e) with implicit-shift QL, accumulating rotations into z's
// columns. On return d holds the eigenvalues.
func refTqli(d, e []float64, z *mat.Dense) error {
	n := len(d)
	a := z.Data()
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				//dpzlint:ignore floateq QL convergence test: e+dd == dd is exact iff |e| vanished below dd's ulp, the intended machine-epsilon stop
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64 || math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f = a[k*n+i+1]
					a[k*n+i+1] = s*a[k*n+i] + c*f
					a[k*n+i] = c*a[k*n+i] - s*f
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// refTred2Values is refTred2 with every eigenvector-accumulation statement
// removed (the Numerical Recipes "eigenvalues only" variant).
func refTred2Values(z *mat.Dense, d, e []float64) {
	n := len(d)
	a := z.Data()
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a[i*n+k])
			}
			if scale == 0 {
				e[i] = a[i*n+l]
			} else {
				for k := 0; k <= l; k++ {
					a[i*n+k] /= scale
					h += a[i*n+k] * a[i*n+k]
				}
				f := a[i*n+l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				a[i*n+l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					g = 0
					for k := 0; k <= j; k++ {
						g += a[j*n+k] * a[i*n+k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k*n+j] * a[i*n+k]
					}
					e[j] = g / h
					f += e[j] * a[i*n+j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = a[i*n+j]
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						a[j*n+k] -= f*e[k] + g*a[i*n+k]
					}
				}
			}
		} else {
			e[i] = a[i*n+l]
		}
	}
	e[0] = 0
	for i := 0; i < n; i++ {
		d[i] = a[i*n+i]
	}
}

// refTqliValues is refTqli without the eigenvector rotation updates.
func refTqliValues(d, e []float64) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				//dpzlint:ignore floateq QL convergence test: e+dd == dd is exact iff |e| vanished below dd's ulp, the intended machine-epsilon stop
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64 || math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}
