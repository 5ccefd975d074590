package pca

import (
	"errors"
	"fmt"
	"sort"

	"dpz/internal/eigen"
	"dpz/internal/mat"
	"dpz/internal/metrics"
	"dpz/internal/scratch"
)

// Basis is a candidate principal subspace handed between compressions by
// the basis-reuse layer: the leading eigenvector columns a previous fit
// produced, in descending-eigenvalue order, plus the standardization mode
// they were fitted under. A Basis carries no means, scales or eigenvalues —
// those are properties of the data it gets applied to, and FitReuse
// recomputes them for the new tile.
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

// ReuseDecision reports which path FitReuse took.
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

// FitReuse is the candidate-aware Stage 2 fit. sel fixes k (K) or sets
// the cumulative-TVE target; Knee and AutoStandardize are not supported,
// since the candidate must match a standardization mode known up front.
// The candidate basis is tried before paying for a cold fit:
//
//  1. Cold: without a usable candidate FitExact(x, sel, opts) runs
//     (ReuseCold), and the result is the reuse-disabled path's.
//  2. Accept (only with a TVE target): a deterministic row sample of x
//     is centered and projected onto the candidate; if the sampled
//     captured-energy fraction reaches the target, the candidate's
//     captured variance is verified EXACTLY on the full data via
//     per-column Rayleigh quotients (cost O(N·M·k), skipping both the
//     O(N·M²) covariance build and the O(M³) eigensolve). On success the
//     candidate is adopted (ReuseAccept) with its columns re-ranked by
//     measured variance: K of them at a fixed K, otherwise all.
//  3. Refine: otherwise the candidate warm-starts subspace iteration on
//     this tile's covariance (ReuseRefine). At a fixed K it runs once at
//     K; for a TVE target the subspace grows geometrically until the
//     target is met.
//
// sel.Extra widens only the cold fit; accept and refine return the
// columns they adopted.
//
// tr (nil for none) receives FitExact's spans on the cold path. Otherwise
// it receives guard under StageSpan, the candidate check from the means
// to the accept decision, and on refine the covariance build as gram and
// the warm eigensolve as eig.
//
// The decision is a pure function of x, sel, opts and the candidate —
// nothing timing- or worker-dependent enters it. With a TVE target the
// adopted basis captures at least the target of x's total variance in
// every case, exactly the guarantee the cold fit provides.
func FitReuse(x *mat.Dense, sel Selection, opts Options, cand *Basis, tr *metrics.Trace) (*Model, FitReport, error) {
	r, c := x.Dims()
	if err := checkFit(r, c, sel); err != nil {
		return nil, FitReport{}, err
	}
	if sel.Knee != nil || sel.AutoStandardize {
		return nil, FitReport{}, errors.New("pca: FitReuse takes a fixed K or a TVE target, and the standardize mode from opts")
	}
	if !cand.usable(x, opts) {
		m, rep, err := FitExact(x, sel, opts, tr)
		rep.Reuse = ReuseCold
		return m, rep, err
	}

	rep := FitReport{Standardized: opts.Standardize, Reuse: ReuseAccept}
	t0 := metrics.Now()
	m := &Model{Means: mat.ColMeans(x)}
	if opts.Standardize {
		m.Scales = mat.ColStds(x, m.Means)
	}
	keep := cand.Q.Cols()
	if sel.K > 0 {
		keep = sel.K
	}
	accepted := validTVE(sel.TVE) && keep <= cand.Q.Cols() &&
		guardSample(x, m.Means, m.Scales, cand.Q, sel.TVE, opts.Workers) &&
		acceptExact(m, x, cand.Q, keep, sel.TVE, opts.Workers)
	tr.Add("guard", StageSpan, t0)
	if !accepted {
		rep.Reuse = ReuseRefine
		if err := refine(m, tr, x, sel, opts, cand.Q); err != nil {
			return nil, rep, err
		}
	}
	rep.K = sel.K
	if rep.K == 0 {
		rep.K = m.KForTVE(sel.TVE)
	}
	return m, rep, nil
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
		copy(sample.Row(i), x.Row(i*r/rs))
	}
	centerInto(sample, sample, means, scales)
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

// refine warm-starts subspace iteration on x's covariance from warm. At
// a fixed sel.K it takes one step, at K. For a TVE target it starts at
// warm's width and doubles until the target is met, ending in the dense
// solve once the width reaches M. There is no small-matrix fall-through:
// the caller already decided reuse is worthwhile.
func refine(m *Model, tr *metrics.Trace, x *mat.Dense, sel Selection, opts Options, warm *mat.Dense) error {
	_, c := x.Dims()
	t0 := metrics.Now()
	covBuf := scratch.Floats(c * c)
	defer scratch.PutFloats(covBuf)
	cov := mat.NewDenseData(c, c, covBuf)
	mat.CovarianceCenteredInto(cov, x, m.Means, m.Scales, opts.Workers)
	m.TotalVar = trace(cov)
	tr.Add("gram", StageSpan, t0)

	t0 = metrics.Now()
	defer tr.Add("eig", StageSpan, t0)
	k := warm.Cols()
	if sel.K > 0 {
		k = sel.K
	}
	for ; ; k *= 2 {
		var sys *eigen.System
		var err error
		if k >= c {
			sys, err = eigen.SymEigTopK(cov, func([]float64) int { return c }, opts.Workers)
		} else {
			sys, _, err = eigen.TopKWarm(cov, k, warm, opts.Seed, opts.Workers)
		}
		if err != nil {
			return fmt.Errorf("pca: warm eigendecomposition failed: %w", err)
		}
		clampNonNegative(sys.Values)
		var cum float64
		for _, v := range sys.Values {
			cum += v
		}
		if sel.K > 0 || k >= c || m.TotalVar <= 0 || cum/m.TotalVar >= sel.TVE {
			m.Eigenvalues = sys.Values
			m.Components = sys.Vectors
			return nil
		}
		// Carry the refined subspace into the next, wider attempt.
		warm = sys.Vectors
	}
}
