// Package eigen implements a dense symmetric eigensolver: Householder
// reduction to tridiagonal form, the eigenvalues by the implicit-shift
// QL iteration, and eigenvectors by inverse iteration (a few leading
// ones) or divide and conquer (all of them), mapped back by the
// Householder transform. This is the numerical core behind DPZ's PCA
// stage and the VIF compressibility indicator.
//
// The reduction and the QL sweep follow the classic tred2/tqli
// formulation (Golub & Van Loan; Numerical Recipes); inverse iteration
// follows LAPACK's dstein and divide and conquer its dstedc, with Gu and
// Eisenstat's eigenvectors. For the covariance matrices DPZ produces
// (symmetric positive semi-definite, typically a few hundred to a few
// thousand features) the QL sweep converges in a handful of iterations
// per eigenvalue.
//
// Every O(n³) inner loop walks contiguous memory: the blocked reduction
// (reduce.go) forms each column's mat-vec in one pass over rows of the
// row-major workspace and updates the leading triangle once per panel,
// divide and conquer (dc.go) spends its flops in row-major matrix
// products, and the back-transform reflects contiguous rows (vectors.go).
// The order of every floating-point operation is fixed by the input
// alone, so results are bit-identical for every worker count and across
// SymEig, SymEigTopK above its crossover and TopK's dense side, and the
// eigenvalues across SymEig, SymEigValues and SymEigTopK. They agree with
// the textbook tred2/tqli loops (reference_test.go) to within round-off,
// not bit for bit: the blocked reduction sums in another order and
// divide and conquer computes other vectors of the same accuracy.
package eigen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dpz/internal/mat"
	"dpz/internal/scratch"
)

// ErrNoConvergence is returned when the QL iteration fails to converge
// within the iteration budget (50 sweeps per eigenvalue, far beyond what a
// well-formed covariance matrix requires).
var ErrNoConvergence = errors.New("eigen: QL iteration did not converge")

// System holds the eigendecomposition of a symmetric matrix: Values[i] is
// the i-th eigenvalue and the i-th column of Vectors is its (unit-norm)
// eigenvector. Pairs are sorted by descending eigenvalue, which is the
// order PCA consumes them in.
type System struct {
	Values  []float64
	Vectors *mat.Dense
}

// SymEig computes the full eigendecomposition of the symmetric matrix a.
// Only the lower triangle is read; a is not modified. It is SymEigTopK
// asking for every vector, on one worker: the divide-and-conquer route.
func SymEig(a *mat.Dense) (*System, error) {
	return SymEigTopK(a, func(vals []float64) int { return len(vals) }, 0, 1, nil)
}

// SymEigValues computes only the eigenvalues of the symmetric matrix a,
// sorted descending. Skipping the eigenvectors makes this several times
// cheaper than SymEig — it is what DPZ's sampling strategy uses to read
// a subset's TVE curve without paying for a basis it will never project
// onto. It runs the same reduction and QL sweep as SymEig, so the
// eigenvalues are the same.
func SymEigValues(a *mat.Dense) ([]float64, error) {
	r, c := a.Dims()
	if r != c {
		return nil, fmt.Errorf("eigen: non-square input %dx%d", r, c)
	}
	if r == 0 {
		return nil, nil
	}
	n := r
	// The tridiagonalization workspace is pooled; only d (the returned
	// eigenvalues) is freshly allocated.
	work := scratch.Floats(n * n)
	defer scratch.PutFloats(work)
	copy(work, a.Data())
	d := make([]float64, n)
	e := scratch.Floats(n)
	defer scratch.PutFloats(e)
	reduce(work, d, e)
	tred2Diagonal(work, d)
	if err := tqli(d, e, nil); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	return d, nil
}

// tred2Diagonal copies the tridiagonal's diagonal out of the reduced a.
func tred2Diagonal(a, d []float64) {
	n := len(d)
	for i := 0; i < n; i++ {
		d[i] = a[i*n+i]
	}
}

// tqli diagonalizes a symmetric tridiagonal matrix (diagonal d,
// sub-diagonal e) with implicit-shift QL. On return d holds the
// eigenvalues. Unless rot is nil it is called with each plane rotation
// (i, s, c) in order; applied to the rows of the transposed accumulator
// zt (rotateRows), rotation (i, s, c) sets zt_i, zt_{i+1} to
// c·zt_i − s·zt_{i+1}, s·zt_i + c·zt_{i+1}, which leaves eigenvector j in
// row j.
func tqli(d, e []float64, rot func(i int, s, c float64)) error {
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
				if rot != nil {
					rot(i, s, c)
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
