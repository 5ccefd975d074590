package pca

import (
	"errors"
	"fmt"
	"math"
	"slices"

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

// probeMargin is the relative margin by which the lower bound of
// LowLinearity must clear the cutoff before the probe stops early. It
// sits far above the bound's rounding error (at most about M·κ·ε ≈ 1e-5
// with the ridge bounding κ by 1e6), so an early answer is always the
// answer the full inverse diagonal gives.
const probeMargin = 1e-3

// CorrelationVIF returns the variance inflation factor of each feature
// whose correlation matrix is corr, VIF_j = 1/(1−R²_j) = (corr⁻¹)_jj,
// clipped to [1, 1e6] (exact collinearity would otherwise be infinite).
// It adds the ridge to corr's diagonal in place first.
func CorrelationVIF(corr *mat.Dense) ([]float64, error) {
	addRidge(corr)
	diag, err := mat.SPDInverseDiag(corr)
	if err != nil {
		return nil, err
	}
	for j, v := range diag {
		diag[j] = clipVIF(v)
	}
	return diag, nil
}

// LowLinearity is the auto-standardize probe on the correlation matrix
// corr: whether the features' mean VIF, as CorrelationVIF reports them,
// falls below VIFCutoff. A matrix that will not factor counts as
// high-linearity. It adds the ridge to corr's diagonal in place.
//
// It answers "no" as early as it can. Pivot j of the Cholesky factor of
// R = corr + ridge·I gives 1/L_jj² = 1/(1−R²_j|<j), the VIF of feature j
// against the features before it only. Conditioning on fewer features
// never explains more variance, so that is at most feature j's true VIF,
// and clipping is monotone; every feature not yet factored has a VIF of
// at least 1. Their sum is thus a lower bound on Σ VIF, and once it
// clears VIFCutoff·M by probeMargin the factorization stops. Otherwise
// the same factor yields the inverse diagonal, and the decision is the
// one CorrelationVIF's VIFs give, bit for bit.
func LowLinearity(corr *mat.Dense) bool {
	n := corr.Rows()
	addRidge(corr)
	bound := VIFCutoff * float64(n) * (1 + probeMargin)
	var lower float64
	l, stopped, err := mat.CholeskyUntil(corr, func(j int, ljj float64) bool {
		lower += clipVIF(1 / (ljj * ljj))
		return lower+float64(n-1-j) > bound
	})
	if stopped || err != nil {
		return false
	}
	var sum float64
	for _, v := range mat.CholeskyInverseDiag(l) {
		sum += clipVIF(v)
	}
	return sum/float64(n) < VIFCutoff
}

// addRidge adds vifRidge to corr's diagonal.
func addRidge(corr *mat.Dense) {
	for i := 0; i < corr.Rows(); i++ {
		corr.Set(i, i, corr.At(i, i)+vifRidge)
	}
}

// clipVIF clips a VIF to [1, 1e6], mapping NaN and ±Inf to 1e6.
func clipVIF(v float64) float64 {
	if v < 1 {
		return 1
	}
	if v > 1e6 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 1e6
	}
	return v
}

// Selection tells the Stage 2 fits how to choose k and how much basis to
// return.
type Selection struct {
	// TVE selects the smallest k whose cumulative TVE reaches it (Method
	// 2); it must lie in (0, 1] unless Knee or K is set. With K set it is
	// only the target FitReuse verifies a candidate against (0: none).
	TVE float64
	// Knee, when non-nil, picks k from the cumulative TVE curve instead
	// (Method 1's knee point).
	Knee func(curve []float64) int
	// K, when positive, fixes k (Algorithm 2's k_e): no spectrum is
	// read, and only the leading min(K+Extra, M) eigenpairs are computed.
	K int
	// Extra asks for this many components past k (capped at M): the
	// margin a published basis keeps.
	Extra int
	// AutoStandardize lets the VIF probe on the fit's own covariance
	// decide standardization, overriding Options.Standardize.
	AutoStandardize bool
}

// FitReport reports what a Stage 2 fit decided.
type FitReport struct {
	K            int  // selected component count, in [1, M]
	Standardized bool // whether the fit ran on standardized features
	// Reuse is the path FitReuse took; ReuseOff from FitExact.
	Reuse ReuseDecision
}

// StageSpan is the span the fits' own spans are part of in a compress
// trace.
const StageSpan = "pca"

// FitExact is the cold Stage 2 fit. It builds the feature covariance C
// once; the auto-standardize probe reads its correlation matrix
// R = D^-½·C·D^-½ (D = diag C) from it, and a standardized fit
// eigensolves R in place.
//
// Without a fixed K the fit is spectrum first: all M eigenvalues come
// first, k is selected from them, and only the leading min(k+Extra, M)
// eigenvectors are computed (eigen.SymEigTopK). The spectrum, TotalVar
// and k are then bit-identical to Fit's; the vectors match Fit's leading
// columns up to sign and round-off, or bit for bit when k+Extra is past
// SymEigTopK's crossover.
//
// With K set the min(K+Extra, M) leading eigenpairs come from
// eigen.TopK, seeded by Options.Seed, and TotalVar is the covariance
// trace, so the TVE stays meaningful with a truncated spectrum.
//
// A standardized fit uses Scales = √diag(C) (zero-variance features get
// 1, as in mat.ColStds), which equals Fit's up to round-off.
//
// tr (nil for none) receives the fit's spans under StageSpan: gram (the
// means, the centered Gram and, when standardizing, the scaling to a
// correlation matrix), vif (the standardize probe: the correlation
// scaling and LowLinearity's bound-first Cholesky, only when it runs)
// and eig (the eigensolve, k selection included).
func FitExact(x *mat.Dense, sel Selection, opts Options, tr *metrics.Trace) (*Model, FitReport, error) {
	var rep FitReport
	r, c := x.Dims()
	if err := checkFit(r, c, sel); err != nil {
		return nil, rep, err
	}

	t0 := metrics.Now()
	m := &Model{Means: mat.ColMeans(x)}
	buf := scratch.Floats(c * c)
	defer scratch.PutFloats(buf)
	cov := mat.NewDenseData(c, c, buf)
	mat.CovarianceCenteredInto(cov, x, m.Means, nil, opts.Workers)
	tr.Add("gram", StageSpan, t0)

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
		tr.Add("vif", StageSpan, t0)
	}
	if standardize {
		t0 = metrics.Now()
		m.Scales = stds
		correlateInto(cov, cov, stds)
		tr.Add("gram", StageSpan, t0)
	}
	rep.Standardized = standardize

	t0 = metrics.Now()
	var sys *eigen.System
	var err error
	if sel.K > 0 {
		rep.K = sel.K
		m.TotalVar = trace(cov)
		sys, err = eigen.TopK(cov, min(sel.K+max(sel.Extra, 0), c), opts.Seed, opts.Workers)
	} else {
		sys, err = eigen.SymEigTopK(cov, func(vals []float64) int {
			spec := slices.Clone(vals)
			clampNonNegative(spec)
			var total float64
			for _, v := range spec {
				total += v
			}
			curve := TVECurveOf(spec, total)
			if sel.Knee != nil {
				rep.K = sel.Knee(curve)
			} else {
				rep.K = kForTVE(curve, sel.TVE)
			}
			rep.K = min(max(rep.K, 1), c)
			return min(rep.K+max(sel.Extra, 0), c)
		}, opts.Workers)
	}
	tr.Add("eig", StageSpan, t0)
	if err != nil {
		return nil, rep, fmt.Errorf("pca: eigendecomposition failed: %w", err)
	}
	clampNonNegative(sys.Values)
	m.Eigenvalues = sys.Values
	m.Components = sys.Vectors
	if sel.K == 0 {
		for _, v := range sys.Values {
			m.TotalVar += v
		}
	}
	return m, rep, nil
}

// checkFit validates the arguments both Stage 2 fits share: an r×c
// sample matrix, a fixed K in range, or else a rule to select k by.
func checkFit(r, c int, sel Selection) error {
	if r < 2 {
		return fmt.Errorf("pca: need at least 2 samples, got %d", r)
	}
	if c < 1 {
		return errors.New("pca: need at least 1 feature")
	}
	if sel.K < 0 || sel.K > c {
		return fmt.Errorf("pca: k=%d out of range [1,%d]", sel.K, c)
	}
	if sel.K == 0 && sel.Knee == nil && !validTVE(sel.TVE) {
		return fmt.Errorf("pca: TVE target %v out of (0,1]", sel.TVE)
	}
	return nil
}

// validTVE reports whether tve is a usable TVE target, in (0, 1].
func validTVE(tve float64) bool { return tve > 0 && tve <= 1 }

// trace returns the sum of a's diagonal.
func trace(a *mat.Dense) float64 {
	var t float64
	for i := 0; i < a.Rows(); i++ {
		t += a.At(i, i)
	}
	return t
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

// lowLinearity runs LowLinearity on the correlation matrix of cov,
// built in pooled scratch so cov itself is left as it is.
func lowLinearity(cov *mat.Dense, stds []float64) bool {
	n := cov.Rows()
	buf := scratch.Floats(n * n)
	defer scratch.PutFloats(buf)
	corr := mat.NewDenseData(n, n, buf)
	correlateInto(corr, cov, stds)
	return LowLinearity(corr)
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
