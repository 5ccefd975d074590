// Package mat implements the dense linear algebra substrate DPZ is built
// on: row-major float64 matrices with the operations the compressor needs
// (multiply, transpose, covariance/correlation, Cholesky). It is written
// against the standard library only; there is no external BLAS.
package mat

import (
	"fmt"
	"math"

	"dpz/internal/parallel"
	"dpz/internal/scratch"
)

// Dense is a row-major matrix of float64 values. The zero value is an empty
// matrix; use NewDense to allocate one with a shape.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c matrix of zeros. It panics if r or c is
// negative, or if both are zero while the other is not.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps an existing slice as an r×c matrix without copying.
// It panics if len(data) != r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns the i-th row as a subslice of the backing store (no copy).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the backing slice (row-major, no copy).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Col copies column j into dst (allocated if nil) and returns it.
func (m *Dense) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.rows)
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.data[i*m.cols+j]
	}
	return dst
}

// SetCol writes src into column j.
func (m *Dense) SetCol(j int, src []float64) {
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = src[i]
	}
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	TransposeInto(t, m)
	return t
}

// TransposeInto writes mᵀ into t, which must be m.cols × m.rows and must
// not alias m. Unlike T it allocates nothing, so callers can run the
// transpose through pooled scratch storage.
func TransposeInto(t, m *Dense) {
	if t.rows != m.cols || t.cols != m.rows {
		panic(fmt.Sprintf("mat: TransposeInto shape mismatch %dx%d vs %dx%d", t.rows, t.cols, m.rows, m.cols))
	}
	// Blocked transpose for cache friendliness on large matrices.
	const bs = 64
	for i0 := 0; i0 < m.rows; i0 += bs {
		i1 := min(i0+bs, m.rows)
		for j0 := 0; j0 < m.cols; j0 += bs {
			j1 := min(j0+bs, m.cols)
			for i := i0; i < i1; i++ {
				row := m.data[i*m.cols:]
				for j := j0; j < j1; j++ {
					t.data[j*t.cols+i] = row[j]
				}
			}
		}
	}
}

// Mul computes a*b into a new matrix, parallelizing across row stripes
// (up to GOMAXPROCS workers). It panics on inner-dimension mismatch.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	MulInto(out, a, b, 0)
	return out
}

// MulInto computes out = a*b, reusing out's storage, with at most workers
// goroutines (0 = GOMAXPROCS). out must be a.rows × b.cols and must not
// alias a or b. Each output row is computed by one worker in the same
// order whatever the bound, so the worker count never changes a bit.
func MulInto(out, a, b *Dense, workers int) {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		panic("mat: MulInto shape mismatch")
	}
	n := a.rows
	if n*a.cols*b.cols < 1<<16 {
		workers = 1
	}
	parallel.ForChunks(n, workers, func(lo, hi int) {
		// i-k-j loop order: stream through b rows, accumulate into out row
		// through the 4-wide unrolled axpy. Each output element still
		// receives its updates in ascending k order, so the unroll does not
		// change the result bits.
		for i := lo; i < hi; i++ {
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for x := range orow {
				orow[x] = 0
			}
			arow := a.data[i*a.cols : (i+1)*a.cols]
			for k, av := range arow {
				if av == 0 {
					continue
				}
				Axpy(orow, b.data[k*b.cols:(k+1)*b.cols], av)
			}
		}
	})
}

// MulVec computes a·x for a vector x of length a.cols.
func MulVec(a *Dense, x []float64) []float64 {
	if len(x) != a.cols {
		panic("mat: MulVec shape mismatch")
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols:]
		var s float64
		for j, xv := range x {
			s += row[j] * xv
		}
		out[i] = s
	}
	return out
}

// ColMeans returns the per-column mean of m.
func ColMeans(m *Dense) []float64 {
	means := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols:]
		for j := 0; j < m.cols; j++ {
			means[j] += row[j]
		}
	}
	inv := 1.0 / float64(m.rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// ColStds returns the per-column sample standard deviation given the
// per-column means. Columns with zero variance report a std of 1 so that
// standardization leaves them untouched instead of producing NaNs.
func ColStds(m *Dense, means []float64) []float64 {
	stds := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols:]
		for j := 0; j < m.cols; j++ {
			d := row[j] - means[j]
			stds[j] += d * d
		}
	}
	den := float64(m.rows - 1)
	if den <= 0 {
		den = 1
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / den)
		if stds[j] == 0 || math.IsNaN(stds[j]) {
			stds[j] = 1
		}
	}
	return stds
}

// Covariance computes the sample covariance matrix (cols × cols) of the
// observations in m (rows are samples, columns are features). The returned
// means are the per-column means that were subtracted.
func Covariance(m *Dense) (cov *Dense, means []float64) {
	return CovarianceW(m, 0)
}

// CovarianceW is Covariance with an explicit worker bound (0 = GOMAXPROCS).
func CovarianceW(m *Dense, workers int) (cov *Dense, means []float64) {
	means = ColMeans(m)
	return covarianceCentered(m, means, nil, workers), means
}

// Correlation computes the sample Pearson correlation matrix of m's columns.
func Correlation(m *Dense) *Dense {
	return CorrelationW(m, 0)
}

// CorrelationW is Correlation with an explicit worker bound (0 = GOMAXPROCS).
func CorrelationW(m *Dense, workers int) *Dense {
	means := ColMeans(m)
	stds := ColStds(m, means)
	return covarianceCentered(m, means, stds, workers)
}

// covarianceCentered computes (X-μ)ᵀ(X-μ)/(n-1), optionally scaling each
// feature by 1/std (yielding the correlation matrix). The Gram product
// runs through the register-tiled Gram kernel; the worker count does not
// affect the result bits (see gramInto).
func covarianceCentered(m *Dense, means, stds []float64, workers int) *Dense {
	cov := NewDense(m.cols, m.cols)
	CovarianceCenteredInto(cov, m, means, stds, workers)
	return cov
}

// CovarianceCenteredInto computes the sample covariance of m's columns
// into cov (which must be cols × cols and is fully overwritten, so pooled
// storage with arbitrary prior contents is safe). means are the per-column
// means to subtract; a non-nil stds additionally scales each centered
// feature by 1/std, yielding the correlation matrix. The worker count
// never changes the result bits.
func CovarianceCenteredInto(cov, m *Dense, means, stds []float64, workers int) {
	r, c := m.rows, m.cols
	if cov.rows != c || cov.cols != c {
		panic(fmt.Sprintf("mat: CovarianceCenteredInto output %dx%d for %d features", cov.rows, cov.cols, c))
	}
	den := float64(r - 1)
	if den <= 0 {
		den = 1
	}
	// Center (and optionally scale) straight into the feature-major
	// layout the Gram kernel reads, in cache blocks as TransposeInto
	// walks, then one symmetric rank-k update.
	centered := scratch.Floats(r * c)
	const bs = 64
	for i0 := 0; i0 < r; i0 += bs {
		i1 := min(i0+bs, r)
		for j0 := 0; j0 < c; j0 += bs {
			j1 := min(j0+bs, c)
			for i := i0; i < i1; i++ {
				src := m.data[i*c:]
				for j := j0; j < j1; j++ {
					v := src[j] - means[j]
					if stds != nil {
						v /= stds[j]
					}
					centered[j*r+i] = v
				}
			}
		}
	}
	gramInto(cov, NewDenseData(c, r, centered), workers)
	scratch.PutFloats(centered)
	for i := range cov.data {
		cov.data[i] /= den
	}
}

// Cholesky factors a symmetric positive-definite matrix a as LLᵀ and
// returns the lower-triangular factor. It returns an error if a is not
// positive definite (within a small jitter tolerance).
func Cholesky(a *Dense) (*Dense, error) {
	l, _, err := CholeskyUntil(a, nil)
	return l, err
}

// CholeskyUntil is Cholesky with an early exit. Columns are factored
// left to right; once pivot L_jj is set, and before the column below it,
// stop(j, L_jj) is called (a nil stop never fires). A true return
// abandons the factorization: l is nil and stopped is true. A factor that
// completes carries Cholesky's bits, since the operations are the same.
func CholeskyUntil(a *Dense, stop func(j int, ljj float64) bool) (l *Dense, stopped bool, err error) {
	if a.rows != a.cols {
		return nil, false, fmt.Errorf("mat: cholesky of non-square %dx%d", a.rows, a.cols)
	}
	n := a.rows
	l = NewDense(n, n)
	for j := 0; j < n; j++ {
		lj := l.data[j*n : j*n+j]
		var d float64
		for _, v := range lj {
			d += v * v
		}
		d = a.data[j*n+j] - d
		if d <= 0 {
			return nil, false, fmt.Errorf("mat: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		l.data[j*n+j] = ljj
		if stop != nil && stop(j, ljj) {
			return nil, true, nil
		}
		inv := 1 / ljj
		// Rows below the pivot in pairs: two independent dot products,
		// each summed in ascending k, keep the FPU busy without changing
		// a single rounding. An odd last row pairs with itself.
		for i := j + 1; i < n; i += 2 {
			i1 := min(i+1, n-1)
			li0, li1 := l.data[i*n:][:len(lj)], l.data[i1*n:][:len(lj)]
			var s0, s1 float64
			for k, v := range lj {
				s0 += li0[k] * v
				s1 += li1[k] * v
			}
			l.data[i*n+j] = (a.data[i*n+j] - s0) * inv
			l.data[i1*n+j] = (a.data[i1*n+j] - s1) * inv
		}
	}
	return l, false, nil
}

// CholeskySolve solves a x = b for symmetric positive definite a given its
// Cholesky factor l (as returned by Cholesky).
func CholeskySolve(l *Dense, b []float64) []float64 {
	n := l.rows
	if len(b) != n {
		panic("mat: CholeskySolve dimension mismatch")
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.data[i*n+k] * y[k]
		}
		y[i] = s / l.data[i*n+i]
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.data[k*n+i] * x[k]
		}
		x[i] = s / l.data[i*n+i]
	}
	return x
}

// SPDInverseDiag returns the diagonal of the inverse of the symmetric
// positive-definite matrix a, via one Cholesky factorization and
// CholeskyInverseDiag.
func SPDInverseDiag(a *Dense) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholeskyInverseDiag(l), nil
}

// CholeskyInverseDiag returns the diagonal of A⁻¹ given A's Cholesky
// factor l. Entry j is eⱼᵀ·A⁻¹·eⱼ from a forward solve L y = eⱼ over rows
// ≥ j only (the leading entries of y are zero) and a back-substitution
// Lᵀ x = y that stops at row j, reading a transposed copy of L so both
// solves walk rows. The operations and their order are those of
// CholeskySolve on eⱼ, so each entry carries the bits of the full
// inverse's diagonal.
func CholeskyInverseDiag(l *Dense) []float64 {
	n := l.rows
	lt := l.T()
	diag := make([]float64, n)
	y0, y1 := make([]float64, n), make([]float64, n)
	// Columns are solved in pairs j0 < j1 so two independent recurrences
	// share each row of L; an odd last column pairs with itself (j0 == j1).
	for j0 := 0; j0 < n; j0 += 2 {
		j1 := min(j0+1, n-1)
		// Forward: row j0 and the k = j0 terms belong to column j0 alone.
		y0[j0] = 1 / l.data[j0*n+j0]
		for i := j1; i < n; i++ {
			row := l.data[i*n : i*n+i]
			var s0, s1 float64
			if i == j1 {
				s1 = 1
			}
			if j0 < j1 {
				s0 -= row[j0] * y0[j0]
			} else {
				s0 = s1
			}
			tail := row[j1:]
			p0, p1 := y0[j1:][:len(tail)], y1[j1:][:len(tail)]
			for k, v := range tail {
				s0 -= v * p0[k]
				s1 -= v * p1[k]
			}
			y0[i] = s0 / l.data[i*n+i]
			y1[i] = s1 / l.data[i*n+i]
		}
		// Back, in place, from row n-1 down to row j0. Column j1's value
		// at row j0 < j1 is computed from stale entries and never read.
		for i := n - 1; i >= j0; i-- {
			row := lt.data[i*n+i+1 : i*n+n]
			p0, p1 := y0[i+1:][:len(row)], y1[i+1:][:len(row)]
			s0, s1 := y0[i], y1[i]
			for k, v := range row {
				s0 -= v * p0[k]
				s1 -= v * p1[k]
			}
			y0[i] = s0 / l.data[i*n+i]
			y1[i] = s1 / l.data[i*n+i]
		}
		diag[j0], diag[j1] = y0[j0], y1[j1]
	}
	return diag
}

// Equal reports whether a and b have the same shape and all elements within
// tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
