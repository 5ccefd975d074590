package pca

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"dpz/internal/eigen"
	"dpz/internal/mat"
	"dpz/internal/metrics"
	"dpz/internal/scratch"
)

// VIFCutoff is the conventional collinearity threshold: data whose mean
// VIF falls below it is treated as low-linearity (standardization is
// applied and poor DPZ compressibility is expected).
const VIFCutoff = 5.0

// vifRidge is added to a correlation matrix's diagonal before inversion
// so near-singular matrices (the very high collinearity DPZ hopes for)
// stay invertible; it bounds the reported VIFs rather than breaking them.
const vifRidge = 1e-6

// CorrelationVIF returns the variance inflation factor of each feature
// whose correlation matrix is corr, VIF_j = 1/(1−R²_j) = (corr⁻¹)_jj,
// clipped to [1, 1e6] (exact collinearity would otherwise be infinite).
// It adds the ridge to corr's diagonal in place first.
func CorrelationVIF(corr *mat.Dense) ([]float64, error) {
	n := corr.Rows()
	for i := 0; i < n; i++ {
		corr.Set(i, i, corr.At(i, i)+vifRidge)
	}
	diag, err := mat.SPDInverseDiag(corr)
	if err != nil {
		return nil, err
	}
	for j, v := range diag {
		if v < 1 {
			v = 1
		}
		if v > 1e6 || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1e6
		}
		diag[j] = v
	}
	return diag, nil
}

// Selection tells FitExact how to choose k and how much basis to return.
type Selection struct {
	// TVE selects the smallest k whose cumulative TVE reaches it (Method
	// 2); it must lie in (0, 1] unless Knee is set.
	TVE float64
	// Knee, when non-nil, picks k from the cumulative TVE curve instead
	// (Method 1's knee point).
	Knee func(curve []float64) int
	// Extra asks for this many components past k (capped at M): the
	// margin a published basis keeps.
	Extra int
	// AutoStandardize lets the VIF probe on the fit's own covariance
	// decide standardization, overriding Options.Standardize.
	AutoStandardize bool
}

// FitTrace reports what FitExact decided and where its time went.
type FitTrace struct {
	K            int  // selected component count, in [1, M]
	Standardized bool // whether the fit ran on standardized features
	// TimeVIF is the standardize probe: scaling the covariance to a
	// correlation matrix and its Cholesky inverse diagonal. Zero when no
	// probe ran.
	TimeVIF time.Duration
	// TimeGram builds the covariance: the means, the centered SyrK Gram
	// and, when standardizing, the scaling to a correlation matrix.
	TimeGram time.Duration
	// TimeEig is the spectrum-first eigensolve, k selection included.
	TimeEig time.Duration
}

// FitExact is the exact Stage 2 fit, spectrum first. It builds the
// feature covariance C once; the auto-standardize probe reads its
// correlation matrix R = D^-½·C·D^-½ (D = diag C) from it, and a
// standardized fit eigensolves R in place. All M eigenvalues come first,
// k is selected from them, and only the leading min(k+Extra, M)
// eigenvectors are computed (eigen.SymEigTopK).
//
// Without standardization the spectrum, TotalVar and k are bit-identical
// to Fit's; the vectors match Fit's leading columns up to sign and
// round-off, or bit for bit when k+Extra is past SymEigTopK's crossover.
// A standardized fit uses Scales = √diag(C) (zero-variance features get
// 1, as in mat.ColStds), which equals Fit's up to round-off.
func FitExact(x *mat.Dense, sel Selection, opts Options) (*Model, FitTrace, error) {
	var tr FitTrace
	r, c := x.Dims()
	if r < 2 {
		return nil, tr, fmt.Errorf("pca: need at least 2 samples, got %d", r)
	}
	if c < 1 {
		return nil, tr, errors.New("pca: need at least 1 feature")
	}
	if sel.Knee == nil && !(sel.TVE > 0 && sel.TVE <= 1) {
		return nil, tr, fmt.Errorf("pca: TVE target %v out of (0,1]", sel.TVE)
	}

	t0 := metrics.Now()
	m := &Model{Means: mat.ColMeans(x)}
	buf := scratch.Floats(c * c)
	defer scratch.PutFloats(buf)
	cov := mat.NewDenseData(c, c, buf)
	mat.CovarianceCenteredInto(cov, x, m.Means, nil, opts.Workers)
	tr.TimeGram = metrics.Since(t0)

	standardize := opts.Standardize
	var stds []float64
	if standardize || sel.AutoStandardize {
		stds = covarianceStds(cov)
	}
	// The probe needs a sample at least four rows tall and two features
	// wide, as sampling.VIF does; below that it does not run and the
	// features stay unscaled.
	if sel.AutoStandardize && r >= 4 && c >= 2 {
		t0 = metrics.Now()
		standardize = lowLinearity(cov, stds)
		tr.TimeVIF = metrics.Since(t0)
	}
	if standardize {
		t0 = metrics.Now()
		m.Scales = stds
		correlateInto(cov, cov, stds)
		tr.TimeGram += metrics.Since(t0)
	}
	tr.Standardized = standardize

	t0 = metrics.Now()
	sys, err := eigen.SymEigTopK(cov, func(vals []float64) int {
		spec := slices.Clone(vals)
		clampNonNegative(spec)
		var total float64
		for _, v := range spec {
			total += v
		}
		curve := TVECurveOf(spec, total)
		if sel.Knee != nil {
			tr.K = sel.Knee(curve)
		} else {
			tr.K = kForTVE(curve, sel.TVE)
		}
		tr.K = min(max(tr.K, 1), c)
		return min(tr.K+max(sel.Extra, 0), c)
	})
	tr.TimeEig = metrics.Since(t0)
	if err != nil {
		return nil, tr, fmt.Errorf("pca: eigendecomposition failed: %w", err)
	}
	clampNonNegative(sys.Values)
	m.Eigenvalues = sys.Values
	m.Components = sys.Vectors
	for _, v := range sys.Values {
		m.TotalVar += v
	}
	return m, tr, nil
}

// covarianceStds returns √diag(cov), with mat.ColStds's guard: a zero
// (or NaN) standard deviation reports 1, so standardization leaves the
// feature untouched.
func covarianceStds(cov *mat.Dense) []float64 {
	n := cov.Rows()
	stds := make([]float64, n)
	for i := range stds {
		s := math.Sqrt(cov.At(i, i))
		if s == 0 || math.IsNaN(s) {
			s = 1
		}
		stds[i] = s
	}
	return stds
}

// correlateInto writes D^-½·cov·D^-½ into dst (which may be cov itself),
// entry (i, j) divided by stds[i]·stds[j].
func correlateInto(dst, cov *mat.Dense, stds []float64) {
	n := cov.Rows()
	for i := 0; i < n; i++ {
		src, out := cov.Row(i), dst.Row(i)
		si := stds[i]
		for j, v := range src {
			out[j] = v / (si * stds[j])
		}
	}
}

// lowLinearity is the auto-standardize probe: the mean VIF of the
// features, read from the correlation matrix of cov, is below
// VIFCutoff. A correlation matrix that will not factor counts as
// high-linearity (no standardization), as a failed probe always has.
func lowLinearity(cov *mat.Dense, stds []float64) bool {
	n := cov.Rows()
	buf := scratch.Floats(n * n)
	defer scratch.PutFloats(buf)
	corr := mat.NewDenseData(n, n, buf)
	correlateInto(corr, cov, stds)
	vif, err := CorrelationVIF(corr)
	if err != nil {
		return false
	}
	var sum float64
	for _, v := range vif {
		sum += v
	}
	return sum/float64(n) < VIFCutoff
}

// kForTVE is the smallest k whose cumulative TVE reaches tve, or the
// curve's length when none does.
func kForTVE(curve []float64, tve float64) int {
	for i, v := range curve {
		if v >= tve {
			return i + 1
		}
	}
	return len(curve)
}
