package pca

import (
	"errors"
	"fmt"
	"sort"

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
	// ReuseCold means the ordinary cold fit ran: there was no usable
	// candidate, no TVE target to verify one against, or the guard
	// rejected it.
	ReuseCold
	// ReuseAccept means the candidate basis passed the quality guard and
	// was adopted outright — no covariance build, no eigensolve.
	ReuseAccept
)

func (d ReuseDecision) String() string {
	switch d {
	case ReuseOff:
		return "off"
	case ReuseCold:
		return "cold"
	case ReuseAccept:
		return "accept"
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
// It takes one of two paths:
//
//  1. Accept: with a usable candidate and a TVE target, a row sample of
//     x projected onto the candidate pre-filters it; if it passes, the
//     full data is projected onto every candidate column once and each
//     column's variance is measured exactly (O(N·M·k), skipping the
//     O(N·M²) covariance and the O(M³) eigensolve). An adopted candidate
//     (ReuseAccept) keeps its columns re-ranked by measured variance, K
//     of them at a fixed K, otherwise all, and FitReport.Projection
//     carries x's scores on the K selected, so nothing projects twice.
//  2. Cold: otherwise — no usable candidate, no TVE target, a candidate
//     narrower than K, or a guard rejection — FitExact(x, sel, opts, tr)
//     runs (ReuseCold), and its model is the reuse-disabled path's, bit
//     for bit.
//
// sel.Extra widens only the cold fit; accept returns the columns it
// adopted.
//
// tr (nil for none) receives guard under StageSpan, the candidate check
// from the means to the accept decision (on accept, the projection
// included), whenever the guard runs, and FitExact's spans on the cold
// path.
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
	keep := cand.NumComponents()
	if sel.K > 0 {
		keep = sel.K
	}
	if cand.usable(x, opts) && validTVE(sel.TVE) && keep <= cand.Q.Cols() {
		t0 := metrics.Now()
		m := &Model{Means: mat.ColMeans(x)}
		if opts.Standardize {
			m.Scales = mat.ColStds(x, m.Means)
		}
		var proj *Projection
		if guardSample(x, m, cand.Q, sel.TVE, opts.Workers) {
			proj = acceptExact(m, x, cand.Q, sel, keep, opts.Workers)
		}
		tr.Add("guard", StageSpan, t0)
		if proj != nil {
			return m, FitReport{K: proj.Scores.Cols(), Standardized: opts.Standardize, Reuse: ReuseAccept, Projection: proj}, nil
		}
	}
	m, rep, err := FitExact(x, sel, opts, tr)
	rep.Reuse = ReuseCold
	return m, rep, err
}

// guardSample is the cheap pre-filter: project a deterministic, evenly
// spaced row sample of x onto q, centered with m's means and scales, and
// test whether it keeps at least the target fraction of the sample's
// energy. It only decides whether the exact full-data verification is
// worth running; acceptance is never granted on the sample alone.
func guardSample(x *mat.Dense, m *Model, q *mat.Dense, target float64, workers int) bool {
	r, c := x.Dims()
	rs := min(r, guardSampleRows)
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
	ybuf := scratch.Floats(rs * q.Cols())
	defer scratch.PutFloats(ybuf)
	p := project(mat.NewDenseData(rs, q.Cols(), ybuf), sample, m.Means, m.Scales, q, workers)
	// A degenerate (constant) sample reads TVE 1 and leaves the decision
	// to the exact check.
	return p.TVE() >= target
}

// acceptExact is the exact acceptance check. It projects the full data
// onto every column of q once and measures each column's Rayleigh
// quotient λ̂_j = Σ_i y_ij²/(r−1) against the total ‖X_c‖²_F/(r−1), and
// adopts q iff its keep best-measured columns reach sel.TVE of it. Then
// m takes those columns, re-ranked, as components, the measurements as
// eigenvalues and the total as TotalVar, and the return is x's scores
// on the k leading ones (sel.K, else the fewest reaching sel.TVE),
// gathered from the one product. A rejection returns nil, m untouched.
func acceptExact(m *Model, x, q *mat.Dense, sel Selection, keep, workers int) *Projection {
	r, kc := x.Rows(), q.Cols()
	ybuf := scratch.Floats(r * kc)
	defer scratch.PutFloats(ybuf)
	full := project(mat.NewDenseData(r, kc, ybuf), x, m.Means, m.Scales, q, workers)
	den := float64(r - 1)
	lam := make([]float64, kc)
	order := make([]int, kc)
	for j, e := range full.ColEnergy {
		lam[j], order[j] = e/den, j
	}
	// Descending measured variance; ties keep the candidate's order.
	sort.SliceStable(order, func(a, b int) bool { return lam[order[a]] > lam[order[b]] })
	order = order[:keep]
	var captured float64
	for _, j := range order {
		captured += lam[j]
	}
	totalVar := full.Energy / den
	if totalVar > 0 && captured/totalVar < sel.TVE {
		return nil
	}
	m.Components = mat.NewDense(q.Rows(), keep)
	for i := range q.Rows() {
		row := m.Components.Row(i)
		for newJ, oldJ := range order {
			row[newJ] = q.At(i, oldJ)
		}
	}
	for _, j := range order {
		m.Eigenvalues = append(m.Eigenvalues, lam[j])
	}
	m.TotalVar = totalVar
	k := sel.K
	if k == 0 {
		k = m.KForTVE(sel.TVE)
	}
	return full.gather(order[:k])
}
