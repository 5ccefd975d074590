// Package eigen implements a dense symmetric eigensolver: Householder
// reduction to tridiagonal form followed by the implicit-shift QL
// iteration. This is the numerical core behind DPZ's PCA stage and the
// VIF compressibility indicator.
//
// The algorithm follows the classic tred2/tqli formulation (Golub & Van
// Loan; Numerical Recipes). For the covariance matrices DPZ produces
// (symmetric positive semi-definite, typically a few hundred to a few
// thousand features) it converges in a handful of sweeps per eigenvalue.
//
// Every O(n³) inner loop walks contiguous memory: tred2's mat-vec sweeps
// rows of the row-major workspace, the accumulation builds each column
// of Q as a contiguous row of a packed stripe, and the QL rotations are
// replayed on contiguous rows of the transposed accumulator, split into
// one private stripe per worker (vectors.go). Each floating-point
// operation and its order are those of the textbook column-walking
// loops, so the results are bit-identical to them for every worker
// count.
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
// Only the lower triangle is read; a is not modified. It runs the
// accumulation route of SymEigTopK on one worker.
func SymEig(a *mat.Dense) (*System, error) {
	r, c := a.Dims()
	if r != c {
		return nil, fmt.Errorf("eigen: non-square input %dx%d", r, c)
	}
	if r == 0 {
		return &System{Values: nil, Vectors: mat.NewDense(0, 0)}, nil
	}
	n := r
	// The workspace is pooled, apart from the accumulation buffer q,
	// which ends as the returned eigenvectors: nothing pooled escapes to
	// the caller.
	z := scratch.Floats(n * n)
	defer scratch.PutFloats(z)
	copy(z, a.Data())
	h := scratch.Floats(n) // reflector scalars
	defer scratch.PutFloats(h)
	d := scratch.Floats(n) // diagonal, then the eigenvalues
	defer scratch.PutFloats(d)
	e := scratch.Floats(n) // off-diagonal
	defer scratch.PutFloats(e)
	tred2Reduce(z, h, e)
	tred2Diagonal(z, d)
	q := make([]float64, n*n)
	rows, err := accumulatedVectors(z, h, d, e, q, 1)
	if err != nil {
		return nil, err
	}
	idx := descendingOrder(d)
	vals := make([]float64, n)
	for newJ, oldJ := range idx {
		vals[newJ] = d[oldJ]
	}
	return &System{Values: vals, Vectors: gatherVectors(q, z, rows, idx, n)}, nil
}

// SymEigValues computes only the eigenvalues of the symmetric matrix a,
// sorted descending. Skipping the eigenvector accumulation makes this
// several times cheaper than SymEig — it is what DPZ's sampling strategy
// uses to read a subset's TVE curve without paying for a basis it will
// never project onto. It runs the same kernels as SymEig, minus the
// accumulation, so the eigenvalues are the same.
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
	tred2Reduce(work, d, e)
	tred2Diagonal(work, d)
	if err := tqli(d, e, nil); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	return d, nil
}

// tred2Reduce reduces the symmetric n×n row-major matrix a (lower
// triangle read) to tridiagonal form with Householder reflections. On
// return e holds the sub-diagonal (e[0] is zero) and d[i] the scalar H
// of reflector i, P_i = I − u·uᵀ/H, whose Householder vector u is stored
// in row i of a left of the diagonal (zero when step i needed no
// reflection). The upper triangle holds u/H by columns, and the diagonal
// of a is the diagonal of the tridiagonal matrix (see tred2Diagonal).
// The orthogonal transform is Q = P_{n-1}···P_1, with QᵀAQ tridiagonal;
// accumulatedVectors and backTransform apply it.
func tred2Reduce(a, d, e []float64) {
	n := len(d)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		ai := a[i*n : i*n+i] // row i left of the diagonal: the Householder vector u
		var h, scale float64
		if l > 0 {
			for _, v := range ai {
				scale += math.Abs(v)
			}
			if scale == 0 {
				e[i] = ai[l]
			} else {
				for k := range ai {
					ai[k] /= scale
					h += ai[k] * ai[k]
				}
				f := ai[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				ai[l] = f - g
				// p = A·u/h from the lower triangle, in row sweeps: each
				// e[j] first sums its own row (k <= j), then gains the
				// column terms (k > j) in ascending k, the summation order
				// of the column-walking formulation. The row dots run four
				// rows per sweep over u, each row with its own ascending-k
				// accumulator, so the blocking changes no bits.
				for j := range ai {
					a[j*n+i] = ai[j] / h
				}
				rowDots(a, n, ai, e)
				for k := 1; k <= l; k++ {
					uk := ai[k]
					row := a[k*n : k*n+k]
					p := e[:len(row)]
					for j, v := range row {
						p[j] += v * uk
					}
				}
				f = 0
				for j := range ai {
					e[j] /= h
					f += e[j] * ai[j]
				}
				hh := f / (h + h)
				for j := range ai {
					f = ai[j]
					g = e[j] - hh*f
					e[j] = g
					row := a[j*n : j*n+j+1]
					q, u := e[:len(row)], ai[:len(row)]
					for k := range row {
						row[k] -= f*q[k] + g*u[k]
					}
				}
			}
		} else {
			e[i] = ai[l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
}

// rowDots sets e[j] = Σ_{k≤j} a[j][k]·u[k] for every j < len(u), reading
// the lower triangle of the row-major n×n a. Rows go four per sweep over
// u: the shared prefix k ≤ j0 feeds four accumulators, and rows j0+1..j0+3
// then finish their own short tails. Each e[j] is still one accumulator
// over ascending k, the single-row loop's sequence, bit for bit.
func rowDots(a []float64, n int, u, e []float64) {
	m := len(u)
	j := 0
	for ; j+4 <= m; j += 4 {
		r0 := a[j*n : j*n+j+1]
		r1 := a[(j+1)*n : (j+1)*n+j+2]
		r2 := a[(j+2)*n : (j+2)*n+j+3]
		r3 := a[(j+3)*n : (j+3)*n+j+4]
		uu := u[:len(r0)]
		var s0, s1, s2, s3 float64
		for k, x := range uu {
			s0 += r0[k] * x
			s1 += r1[k] * x
			s2 += r2[k] * x
			s3 += r3[k] * x
		}
		u1, u2, u3 := u[j+1], u[j+2], u[j+3]
		s1 += r1[j+1] * u1
		s2 += r2[j+1] * u1
		s2 += r2[j+2] * u2
		s3 += r3[j+1] * u1
		s3 += r3[j+2] * u2
		s3 += r3[j+3] * u3
		e[j], e[j+1], e[j+2], e[j+3] = s0, s1, s2, s3
	}
	for ; j < m; j++ {
		row := a[j*n : j*n+j+1]
		uu := u[:len(row)]
		var g float64
		for k, v := range row {
			g += v * uu[k]
		}
		e[j] = g
	}
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
// zt, rotation (i, s, c) sets zt_i, zt_{i+1} to c·zt_i − s·zt_{i+1},
// s·zt_i + c·zt_{i+1}, which leaves eigenvector j in row j.
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
