package pca

import (
	"fmt"
	"sort"

	"dpz/internal/eigen"
	"dpz/internal/mat"
	"dpz/internal/scratch"
)

// Basis is a candidate principal subspace handed between compressions by
// the basis-reuse layer: the leading eigenvector columns a previous fit
// produced, in descending-eigenvalue order, plus the standardization mode
// they were fitted under. A Basis carries no means, scales or eigenvalues —
// those are properties of the data it gets applied to, and the reuse fits
// recompute them for the new tile.
type Basis struct {
	// Q holds orthonormal columns (features × k).
	Q *mat.Dense
	// Standardized records whether Q was fitted on standardized features;
	// a candidate only applies to a fit using the same mode.
	Standardized bool
}

// NumComponents returns the column count of the candidate subspace.
func (b *Basis) NumComponents() int {
	if b == nil || b.Q == nil {
		return 0
	}
	return b.Q.Cols()
}

// ReuseDecision reports which path a reuse-aware fit took.
type ReuseDecision int

const (
	// ReuseOff means basis reuse was not active for this compression.
	ReuseOff ReuseDecision = iota
	// ReuseCold means no usable candidate existed (or it failed the shape
	// or standardization gates) and the ordinary cold fit ran.
	ReuseCold
	// ReuseAccept means the candidate basis passed the quality guard and
	// was adopted outright — no covariance build, no eigensolve.
	ReuseAccept
	// ReuseRefine means the candidate warm-started the subspace iteration
	// on this tile's covariance.
	ReuseRefine
)

func (d ReuseDecision) String() string {
	switch d {
	case ReuseOff:
		return "off"
	case ReuseCold:
		return "cold"
	case ReuseAccept:
		return "accept"
	case ReuseRefine:
		return "refine"
	default:
		return fmt.Sprintf("ReuseDecision(%d)", int(d))
	}
}

// BasisMargin is how many components beyond the selected k a published
// basis keeps. The margin lets a follower tile whose spectrum is slightly
// flatter still find its target inside the candidate, at a per-entry
// memory cost of M·8 bytes per extra column.
const BasisMargin = 8

// guardSampleRows caps the deterministic row sample the cheap pre-filter
// projects before committing to the full-data verification.
const guardSampleRows = 256

// usable reports whether cand can be applied to a fit of x under opts.
func (b *Basis) usable(x *mat.Dense, opts Options) bool {
	if b == nil || b.Q == nil || b.Q.Cols() < 1 {
		return false
	}
	if b.Standardized != opts.Standardize {
		return false
	}
	_, c := x.Dims()
	return b.Q.Rows() == c
}

// FitTVEReuse fits a PCA basis for x targeting the cumulative-TVE
// threshold, trying the candidate basis before paying for a cold fit:
//
//  1. Guard: a deterministic row sample of x is centered and projected
//     onto the candidate; if the sampled captured-energy fraction reaches
//     the target, the candidate's captured variance is verified EXACTLY on
//     the full data via per-column Rayleigh quotients (cost O(N·M·k),
//     skipping both the O(N·M²) covariance build and the O(M³)
//     eigensolve). On success the candidate is adopted (ReuseAccept) with
//     its columns re-ranked by measured variance.
//  2. Otherwise the candidate warm-starts subspace iteration on this
//     tile's covariance, growing the subspace geometrically until the
//     target is met (ReuseRefine).
//  3. Without a usable candidate the exact FitExact runs (ReuseCold),
//     with BasisMargin extra components for the basis it will publish.
//     Its first k components are those of the reuse-disabled path.
//
// The decision is a pure function of x, target, opts and the candidate —
// nothing timing- or worker-dependent enters it. The adopted basis
// captures at least target of x's total variance in every case, exactly
// the guarantee the cold fit provides.
func FitTVEReuse(x *mat.Dense, target float64, opts Options, seed int64, cand *Basis) (*Model, ReuseDecision, error) {
	r, _ := x.Dims()
	if r < 2 {
		return nil, ReuseCold, fmt.Errorf("pca: need at least 2 samples, got %d", r)
	}
	if target <= 0 || target > 1 {
		return nil, ReuseCold, fmt.Errorf("pca: TVE target %v out of (0,1]", target)
	}
	if !cand.usable(x, opts) {
		m, _, err := FitExact(x, Selection{TVE: target, Extra: BasisMargin}, opts)
		return m, ReuseCold, err
	}

	m := &Model{}
	m.Means = mat.ColMeans(x)
	if opts.Standardize {
		m.Scales = mat.ColStds(x, m.Means)
	}
	if guardSample(x, m.Means, m.Scales, cand.Q, target, opts.Workers) {
		if ok := acceptExact(m, x, cand.Q, cand.Q.Cols(), target, opts.Workers); ok {
			return m, ReuseAccept, nil
		}
	}
	if err := refineTVE(m, x, target, opts, seed, cand.Q); err != nil {
		return nil, ReuseRefine, err
	}
	return m, ReuseRefine, nil
}

// FitKReuse is the sampling-path analogue of FitTVEReuse: k is already
// fixed (Algorithm 2 estimated it), so the candidate is either adopted
// after the guard verifies its top-k columns still capture the TVE target
// (target > 0), warm-refined into the true top-k subspace, or ignored in
// favour of the cold FitK. A target of 0 (knee-point selection combined
// with sampling) disables the accept path — there is no threshold to
// verify against — but keeps the warm refine.
func FitKReuse(x *mat.Dense, k int, target float64, opts Options, seed int64, cand *Basis) (*Model, ReuseDecision, error) {
	r, c := x.Dims()
	if r < 2 {
		return nil, ReuseCold, fmt.Errorf("pca: need at least 2 samples, got %d", r)
	}
	if k < 1 || k > c {
		return nil, ReuseCold, fmt.Errorf("pca: k=%d out of range [1,%d]", k, c)
	}
	if !cand.usable(x, opts) {
		m, err := FitK(x, k, opts, seed)
		return m, ReuseCold, err
	}

	m := &Model{}
	m.Means = mat.ColMeans(x)
	if opts.Standardize {
		m.Scales = mat.ColStds(x, m.Means)
	}
	if target > 0 && target <= 1 && cand.Q.Cols() >= k && guardSample(x, m.Means, m.Scales, cand.Q, target, opts.Workers) {
		if ok := acceptExact(m, x, cand.Q, k, target, opts.Workers); ok {
			return m, ReuseAccept, nil
		}
	}
	// Warm refine at the fixed k: the candidate subspace starts the
	// iteration on this tile's covariance.
	covBuf := scratch.Floats(c * c)
	defer scratch.PutFloats(covBuf)
	cov := mat.NewDenseData(c, c, covBuf)
	mat.CovarianceCenteredInto(cov, x, m.Means, m.Scales, opts.Workers)
	for i := 0; i < c; i++ {
		m.TotalVar += cov.At(i, i)
	}
	sys, _, err := eigen.TopKWarm(cov, k, cand.Q, seed, opts.Workers)
	if err != nil {
		return nil, ReuseRefine, fmt.Errorf("pca: warm truncated eigendecomposition failed: %w", err)
	}
	clampNonNegative(sys.Values)
	m.Eigenvalues = sys.Values
	m.Components = sys.Vectors
	return m, ReuseRefine, nil
}

// guardSample is the cheap pre-filter: center a deterministic, evenly
// spaced row sample of x and test whether projecting it onto q keeps at
// least the target fraction of its energy. It only decides whether the
// exact full-data verification is worth running; acceptance is never
// granted on the sample alone.
func guardSample(x *mat.Dense, means, scales []float64, q *mat.Dense, target float64, workers int) bool {
	r, c := x.Dims()
	kc := q.Cols()
	rs := r
	if rs > guardSampleRows {
		rs = guardSampleRows
	}
	if 2*rs >= r {
		// The sample would cost at least half the exact check: skip the
		// pre-filter and let acceptExact decide outright.
		return true
	}
	sbuf := scratch.Floats(rs * c)
	defer scratch.PutFloats(sbuf)
	sample := mat.NewDenseData(rs, c, sbuf)
	for i := 0; i < rs; i++ {
		src := x.Row(i * r / rs)
		dst := sample.Row(i)
		for j := 0; j < c; j++ {
			v := src[j] - means[j]
			if scales != nil {
				v /= scales[j]
			}
			dst[j] = v
		}
	}
	var total float64
	for _, v := range sbuf {
		total += v * v
	}
	if total <= 0 {
		// Degenerate (constant) sample: let the exact check decide.
		return true
	}
	ybuf := scratch.Floats(rs * kc)
	defer scratch.PutFloats(ybuf)
	y := mat.NewDenseData(rs, kc, ybuf)
	mat.MulInto(y, sample, q, workers)
	var captured float64
	for _, v := range ybuf {
		captured += v * v
	}
	return captured/total >= target
}

// measureRayleigh is the measurement core of the exact acceptance guard:
// it projects the full centered data onto q and returns each column's
// captured variance (the Rayleigh quotient λ̂_j = ‖X_c q_j‖²/(r−1); q
// orthonormal makes Σλ̂ exactly the variance the projection preserves)
// together with the exact total variance of x. m supplies the means and
// scales; nothing else on m is read or written.
func measureRayleigh(m *Model, x *mat.Dense, q *mat.Dense, workers int) (lam []float64, totalVar float64) {
	r, c := x.Dims()
	kc := q.Cols()
	cbuf := scratch.Floats(r * c)
	defer scratch.PutFloats(cbuf)
	centered := mat.NewDenseData(r, c, cbuf)
	centerInto(centered, x, m.Means, m.Scales)
	den := float64(r - 1)
	if den <= 0 {
		den = 1
	}
	for _, v := range cbuf {
		totalVar += v * v
	}
	totalVar /= den

	ybuf := scratch.Floats(r * kc)
	defer scratch.PutFloats(ybuf)
	y := mat.NewDenseData(r, kc, ybuf)
	mat.MulInto(y, centered, q, workers)
	lam = make([]float64, kc)
	for i := 0; i < r; i++ {
		row := y.Row(i)
		for j, v := range row {
			lam[j] += v * v
		}
	}
	for j := range lam {
		lam[j] /= den
	}
	return lam, totalVar
}

// rankByVariance returns the column order sorted by descending measured
// variance (stable: ties keep candidate order).
func rankByVariance(lam []float64) []int {
	order := make([]int, len(lam))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lam[order[a]] > lam[order[b]] })
	return order
}

// adoptColumns installs the keep best-measured columns of q into m as its
// components, re-ranked by measured variance, with the measurements as
// eigenvalues and the exact total variance.
func adoptColumns(m *Model, q *mat.Dense, lam []float64, order []int, keep int, totalVar float64) {
	vals := make([]float64, keep)
	comp := mat.NewDense(q.Rows(), keep)
	for newJ := 0; newJ < keep; newJ++ {
		oldJ := order[newJ]
		vals[newJ] = lam[oldJ]
		for i := 0; i < q.Rows(); i++ {
			comp.Set(i, newJ, q.At(i, oldJ))
		}
	}
	m.Eigenvalues = vals
	m.Components = comp
	m.TotalVar = totalVar
}

// acceptExact runs the exact acceptance check: measure every candidate
// column's Rayleigh quotient on the full data and adopt the basis iff the
// keep columns with the largest measured variance still reach the target
// fraction of the total. On success the model's components are q's
// columns re-ranked by measured variance (truncated to keep), its
// eigenvalues are the measurements, and true is returned; on failure the
// model's Eigenvalues/Components/TotalVar are left unset.
func acceptExact(m *Model, x *mat.Dense, q *mat.Dense, keep int, target float64, workers int) bool {
	lam, totalVar := measureRayleigh(m, x, q, workers)
	order := rankByVariance(lam)
	var captured float64
	for j := 0; j < keep; j++ {
		captured += lam[order[j]]
	}
	if totalVar > 0 && captured/totalVar < target {
		return false
	}
	adoptColumns(m, q, lam, order, keep, totalVar)
	return true
}

// refineTVE warm-starts subspace iteration on x's covariance from warm,
// growing the computed subspace geometrically (doubling from the warm
// basis's width) until the cumulative TVE target is met. There is no
// small-matrix fall-through: the caller already decided reuse is
// worthwhile.
func refineTVE(m *Model, x *mat.Dense, target float64, opts Options, seed int64, warm *mat.Dense) error {
	_, c := x.Dims()
	covBuf := scratch.Floats(c * c)
	defer scratch.PutFloats(covBuf)
	cov := mat.NewDenseData(c, c, covBuf)
	mat.CovarianceCenteredInto(cov, x, m.Means, m.Scales, opts.Workers)
	m.TotalVar = 0
	for i := 0; i < c; i++ {
		m.TotalVar += cov.At(i, i)
	}
	for k := warm.Cols(); ; k *= 2 {
		if k >= c {
			sys, err := eigen.SymEigTopK(cov, func([]float64) int { return c }, opts.Workers)
			if err != nil {
				return fmt.Errorf("pca: eigendecomposition failed: %w", err)
			}
			clampNonNegative(sys.Values)
			m.Eigenvalues = sys.Values
			m.Components = sys.Vectors
			return nil
		}
		sys, _, err := eigen.TopKWarm(cov, k, warm, seed, opts.Workers)
		if err != nil {
			return fmt.Errorf("pca: warm truncated eigendecomposition failed: %w", err)
		}
		clampNonNegative(sys.Values)
		var cum float64
		for _, v := range sys.Values {
			cum += v
		}
		if m.TotalVar <= 0 || cum/m.TotalVar >= target {
			m.Eigenvalues = sys.Values
			m.Components = sys.Vectors
			return nil
		}
		// Carry the refined subspace into the next, wider attempt.
		warm = sys.Vectors
	}
}
