// Package pca implements principal component analysis as DPZ's statistical
// retrieval stage (Stage 2). Rows of the input matrix are samples (the N
// datapoints of each block position), columns are features (the M blocks);
// the projection keeps the k leading eigenvectors of the feature covariance
// matrix and records the cumulative total variance explained (TVE, Eq. 2)
// used by both k-selection methods.
package pca

import (
	"errors"
	"fmt"

	"dpz/internal/eigen"
	"dpz/internal/mat"
	"dpz/internal/scratch"
)

// Model is a fitted PCA basis. It stores everything needed to project new
// data and to invert a projection: the per-feature means (and optional
// standardization scales), the full eigenvalue spectrum, and the
// eigenvector matrix (features × features, columns sorted by descending
// eigenvalue).
type Model struct {
	Means       []float64  // per-feature means subtracted before projection
	Scales      []float64  // per-feature std devs if standardized, else nil
	Eigenvalues []float64  // descending; the full spectrum, or K+Extra leading at a fixed K
	Components  *mat.Dense // features × s; column j is eigenvector j (s = len(Eigenvalues), or FitExact's k+Extra)
	// TotalVar is the trace of the analyzed covariance matrix — the TVE
	// denominator. With the full spectrum it is the eigenvalue sum; with
	// a truncated one it is computed directly so TVE stays meaningful.
	TotalVar float64
}

// Options configures the fits.
type Options struct {
	// Standardize divides each centered feature by its sample standard
	// deviation before the eigenanalysis. The paper applies this only to
	// low-linearity data (VIF below the cutoff); DCT block data normally
	// shares a unit norm and is left unscaled.
	Standardize bool
	// Workers bounds the parallelism of the covariance Gram kernel
	// (0 = GOMAXPROCS). It never changes the result bits.
	Workers int
	// Seed makes the random starting subspace of eigen.TopK, which a
	// fixed K runs, reproducible.
	Seed int64
}

// Fit computes the PCA basis of x (rows = samples, cols = features).
func Fit(x *mat.Dense, opts Options) (*Model, error) {
	r, c := x.Dims()
	if r < 2 {
		return nil, fmt.Errorf("pca: need at least 2 samples, got %d", r)
	}
	if c < 1 {
		return nil, errors.New("pca: need at least 1 feature")
	}
	m := &Model{Means: mat.ColMeans(x)}
	if opts.Standardize {
		m.Scales = mat.ColStds(x, m.Means)
	}
	buf := scratch.Floats(c * c)
	defer scratch.PutFloats(buf)
	cov := mat.NewDenseData(c, c, buf)
	mat.CovarianceCenteredInto(cov, x, m.Means, m.Scales, opts.Workers)
	sys, err := eigen.SymEig(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition failed: %w", err)
	}
	// Clamp tiny negative eigenvalues caused by round-off: covariance
	// matrices are PSD by construction.
	clampNonNegative(sys.Values)
	m.Eigenvalues = sys.Values
	m.Components = sys.Vectors
	for _, v := range sys.Values {
		m.TotalVar += v
	}
	return m, nil
}

// Spectrum computes only the eigenvalue spectrum (descending, clamped
// non-negative) and the total variance of x's features — everything k
// selection needs, at a fraction of a full fit's cost because no
// eigenvectors are accumulated.
func Spectrum(x *mat.Dense, opts Options) (vals []float64, totalVar float64, err error) {
	r, c := x.Dims()
	if r < 2 || c < 1 {
		return nil, 0, fmt.Errorf("pca: matrix %dx%d too small for a spectrum", r, c)
	}
	covBuf := scratch.Floats(c * c)
	defer scratch.PutFloats(covBuf)
	cov := mat.NewDenseData(c, c, covBuf)
	means := mat.ColMeans(x)
	var stds []float64
	if opts.Standardize {
		stds = mat.ColStds(x, means)
	}
	mat.CovarianceCenteredInto(cov, x, means, stds, opts.Workers)
	for i := 0; i < c; i++ {
		totalVar += cov.At(i, i)
	}
	vals, err = eigen.SymEigValues(cov)
	if err != nil {
		return nil, 0, fmt.Errorf("pca: spectrum: %w", err)
	}
	clampNonNegative(vals)
	return vals, totalVar, nil
}

// TVECurveOf converts a spectrum into a cumulative TVE curve.
func TVECurveOf(vals []float64, totalVar float64) []float64 {
	curve := make([]float64, len(vals))
	var run float64
	for i, v := range vals {
		run += v
		if totalVar > 0 {
			curve[i] = run / totalVar
		} else {
			curve[i] = 1
		}
	}
	return curve
}

func clampNonNegative(vals []float64) {
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
}

// NumFeatures returns the feature dimensionality of the fitted model.
func (m *Model) NumFeatures() int { return len(m.Means) }

// TVECurve returns the cumulative total variance explained for k =
// 1..len(Eigenvalues): curve[k-1] = Σ_{i<k} λ_i / TotalVar (Eq. 2). If
// the total variance is zero (constant data) every entry is 1.
func (m *Model) TVECurve() []float64 {
	return TVECurveOf(m.Eigenvalues, m.TotalVar)
}

// KForTVE returns the smallest k whose cumulative TVE reaches the given
// threshold (Method 2 in Algorithm 1). The result is always in [1, M].
func (m *Model) KForTVE(tve float64) int {
	return kForTVE(m.TVECurve(), tve)
}

// ProjectionMatrix returns the M×k matrix of the k leading eigenvectors.
// k must not exceed the number of components the model holds.
func (m *Model) ProjectionMatrix(k int) *mat.Dense {
	if avail := m.Components.Cols(); k < 1 || k > avail {
		panic(fmt.Sprintf("pca: k=%d out of range [1,%d]", k, avail))
	}
	d := mat.NewDense(m.NumFeatures(), k)
	for i := range d.Rows() {
		copy(d.Row(i), m.Components.Row(i)[:k])
	}
	return d
}

// Transform projects x (rows = samples, cols = M features) onto the k
// leading components, returning the rows × k score matrix Y = (X−μ)·D_k.
// It is Project's scores with no worker bound (GOMAXPROCS).
func (m *Model) Transform(x *mat.Dense, k int) *mat.Dense {
	return m.Project(x, k, 0).Scores
}

// Project projects x onto the k leading components and measures the
// result on every row of x. The worker bound (0 = GOMAXPROCS) never
// changes a bit.
func (m *Model) Project(x *mat.Dense, k, workers int) *Projection {
	return project(mat.NewDense(x.Rows(), k), x, m.Means, m.Scales, m.ProjectionMatrix(k), workers)
}

// Projection is data projected onto a basis, measured on every row: the
// scores Y = X_c·Q of the centered (and optionally scaled) data X_c, each
// score column's energy Σ_i y_ij², and the energy ‖X_c‖²_F of X_c.
type Projection struct {
	Scores    *mat.Dense
	ColEnergy []float64
	Energy    float64
}

// TVE is the share of the centered energy the score columns keep (Eq. 2
// measured on the data, not read off eigenvalues): 1 for constant data,
// and capped at 1 against rounding in a k = M projection.
func (p *Projection) TVE() float64 {
	if p.Energy <= 0 {
		return 1
	}
	var kept float64
	for _, e := range p.ColEnergy {
		kept += e
	}
	return min(kept/p.Energy, 1)
}

// gather returns the projection onto the listed columns of p's basis, in
// that order, copying the scores out of p's storage. Each score depends
// only on its row of X_c and its basis column, so the result is bit for
// bit the projection onto those columns.
func (p *Projection) gather(cols []int) *Projection {
	g := &Projection{Scores: mat.NewDense(p.Scores.Rows(), len(cols)), Energy: p.Energy}
	for _, j := range cols {
		g.ColEnergy = append(g.ColEnergy, p.ColEnergy[j])
	}
	for i := range g.Scores.Rows() {
		src, dst := p.Scores.Row(i), g.Scores.Row(i)
		for newJ, oldJ := range cols {
			dst[newJ] = src[oldJ]
		}
	}
	return g
}

// project is Stage 2's one projection. It centers x (minus means, divided
// by scales when non-nil) into pooled scratch once, forms X_c·q into
// scores (x.Rows() × q.Cols()) with mat.GemmInto, whose bits do not
// depend on the worker count, and measures both: ‖X_c‖²_F summed in
// row-major order and each score column's energy summed down its rows.
func project(scores, x *mat.Dense, means, scales []float64, q *mat.Dense, workers int) *Projection {
	r, c := x.Dims()
	if c != len(means) || q.Rows() != c {
		panic("pca: projection feature-count mismatch")
	}
	buf := scratch.Floats(r * c)
	defer scratch.PutFloats(buf)
	centered := mat.NewDenseData(r, c, buf)
	p := &Projection{Scores: scores, ColEnergy: make([]float64, q.Cols())}
	p.Energy = centerInto(centered, x, means, scales)
	mat.GemmInto(scores, centered, q, workers)
	for i := 0; i < r; i++ {
		for j, v := range scores.Row(i) {
			p.ColEnergy[j] += v * v
		}
	}
	return p
}

// InverseTransform reconstructs X̂ = Y·D_kᵀ·diag(scale) + μ from scores.
func (m *Model) InverseTransform(y *mat.Dense) *mat.Dense {
	_, k := y.Dims()
	d := m.ProjectionMatrix(k)
	recon := mat.Mul(y, d.T())
	r, c := recon.Dims()
	for i := 0; i < r; i++ {
		row := recon.Row(i)
		for j := 0; j < c; j++ {
			if m.Scales != nil {
				row[j] *= m.Scales[j]
			}
			row[j] += m.Means[j]
		}
	}
	return recon
}

// Reconstruct is Transform followed by InverseTransform at rank k: the
// best rank-k approximation of x in the fitted basis.
func (m *Model) Reconstruct(x *mat.Dense, k int) *mat.Dense {
	return m.InverseTransform(m.Transform(x, k))
}

// centerInto writes the centered (and optionally scaled) copy of x into
// out, which must share x's shape and is fully overwritten, and returns
// the copy's energy ‖out‖²_F summed in row-major order.
func centerInto(out, x *mat.Dense, means, scales []float64) (energy float64) {
	r, c := x.Dims()
	for i := 0; i < r; i++ {
		src := x.Row(i)
		dst := out.Row(i)
		for j := 0; j < c; j++ {
			v := src[j] - means[j]
			if scales != nil {
				v /= scales[j]
			}
			dst[j] = v
			energy += v * v
		}
	}
	return energy
}
