// Sketch-accelerated fits: Stage 2's cold path pays for an O(N·M²)
// covariance build plus an O(M³) dense eigensolve even when the data is so
// linear that a handful of components reach the TVE target. The fits in
// this file replace that wall with eigen.SketchGram — a seeded randomized
// range finder that touches only the N×M data — and then verify the
// candidate through the same exact Rayleigh-quotient acceptance guard the
// basis-reuse layer uses, so a sketch NEVER weakens the TVE contract:
//
//	accept   ⇒ the adopted basis was measured on the full data and meets
//	           the target exactly (the guard, not the sketch, decides);
//	refine   ⇒ the sketch basis warm-starts subspace iteration on the
//	           exact covariance, the guaranteed-convergent path;
//	fallback ⇒ small inputs, flat spectra and sketch failures run the
//	           ordinary cold fit — the same deterministic solve the
//	           sketch-disabled configuration performs.
//
// A poor sketch can therefore cost time (an escalation, a refine) but
// never quality.
//
// The TVE fit is two-phase: a cheap pilot sketch on a deterministic row
// subsample estimates where the spectrum's TVE knee sits, then one
// right-sized sketch jumps straight to that width instead of climbing a
// blind doubling ladder. Flat spectra (k_est a large fraction of M — the
// regime where no truncated method can beat the dense solver, by the Ky
// Fan bound) are detected at pilot cost and routed to the cold fit
// immediately.
package pca

import (
	"fmt"
	"math"

	"dpz/internal/eigen"
	"dpz/internal/mat"
	"dpz/internal/scratch"
)

// sketchMinFeatures is the feature count below which sketching cannot beat
// the dense solver.
const sketchMinFeatures = 256

// sketchPilotK is the pilot sketch width: wide enough to see the leading
// spectrum shape, cheap enough that a wasted pilot (flat spectrum →
// fallback) costs a few percent of the cold fit.
const sketchPilotK = 32

// sketchPilotRows caps the deterministic row subsample the pilot sketches.
const sketchPilotRows = 600

// sketchPower is the power-iteration count of the pilot and main
// sketches. Zero extra iterations (the range pass Z = Aᵀ(A·Ω) is already
// one application of the Gram operator) is enough here because acceptance
// is decided by the exact measurement, not the sketch: a slightly
// sloppier basis costs at most a few extra adopted columns, and a basis
// too sloppy to reach the target escalates or refines.
const sketchPower = 0

// sketchEscalations bounds the width escalations after a rejected main
// sketch before handing over to the covariance refine path.
const sketchEscalations = 2

// SketchDecision reports which path a sketch-enabled fit took.
type SketchDecision int

const (
	// SketchOff means the sketch fast path was not active for this fit.
	SketchOff SketchDecision = iota
	// SketchAccept means a sketched candidate basis passed the exact
	// Rayleigh-quotient guard and was adopted — no covariance build, no
	// dense eigensolve.
	SketchAccept
	// SketchRefine means the sketch basis warm-started subspace iteration
	// on the exact covariance (the guard rejected, or there was no TVE
	// target to verify against).
	SketchRefine
	// SketchFallback means the input was too small, the spectrum too flat
	// or the sketch failed, and the ordinary cold fit ran instead — the
	// same deterministic solve the sketch-disabled configuration performs.
	SketchFallback
)

func (d SketchDecision) String() string {
	switch d {
	case SketchOff:
		return "off"
	case SketchAccept:
		return "accept"
	case SketchRefine:
		return "refine"
	case SketchFallback:
		return "fallback"
	default:
		return fmt.Sprintf("SketchDecision(%d)", int(d))
	}
}

// FitTVESketch fits a PCA basis reaching the cumulative-TVE target via a
// pilot-guided randomized sketch. A cheap pilot sketch on a row subsample
// estimates the component count the target needs; if the estimate says
// k ≪ M, one right-sized sketch produces the candidate basis and the
// exact full-data Rayleigh-quotient guard adopts the smallest column set
// that reaches the target. Acceptance is decided only by the exact
// measurement, so the adopted basis carries the same TVE guarantee as the
// cold fit; rejected candidates escalate in width and finally hand over
// to a warm covariance refine, and flat spectra or degenerate inputs run
// the cold fit outright.
func FitTVESketch(x *mat.Dense, target float64, opts Options, seed int64) (*Model, SketchDecision, error) {
	r, c := x.Dims()
	if r < 2 {
		return nil, SketchFallback, fmt.Errorf("pca: need at least 2 samples, got %d", r)
	}
	if target <= 0 || target > 1 {
		return nil, SketchFallback, fmt.Errorf("pca: TVE target %v out of (0,1]", target)
	}
	copts := opts
	copts.Sketch = false
	if c <= sketchMinFeatures {
		m, err := Fit(x, copts)
		return m, SketchFallback, err
	}

	m := &Model{}
	m.Means = mat.ColMeans(x)
	if opts.Standardize {
		m.Scales = mat.ColStds(x, m.Means)
	}
	cbuf := scratch.Floats(r * c)
	defer scratch.PutFloats(cbuf)
	centered := mat.NewDenseData(r, c, cbuf)
	centerInto(centered, x, m.Means, m.Scales)
	den := float64(r - 1)
	var totalVar float64
	for _, v := range cbuf {
		totalVar += v * v
	}
	totalVar /= den
	if totalVar <= 0 {
		// Constant data: nothing to sketch, and the cold fit's degenerate
		// handling is the behavior callers already rely on.
		m2, err := Fit(x, copts)
		return m2, SketchFallback, err
	}

	kEst, ok := pilotEstimate(centered, target, opts.Workers, seed)
	if !ok || kEst > c/3 {
		// Flat spectrum (or a failed pilot): by the Ky Fan inequality no
		// k-column basis can capture more variance than the top-k
		// eigenvectors, so when even the estimate needs a large fraction
		// of M the dense solver is the cheapest correct answer. Bail at
		// pilot cost.
		m2, err := Fit(x, copts)
		return m2, SketchFallback, err
	}

	// Main sketch on the full rows — at tight TVE targets (five nines) the
	// candidate subspace must be accurate to ~1−target in relative energy,
	// which a row subsample cannot deliver. The pilot's estimate is noisy,
	// so the first jump pads it by half; a rejected attempt
	// re-estimates k from its own exact measurements before escalating (or
	// bails to the dense solver if the fresh estimate also says flat).
	need := target * totalVar
	var widest *mat.Dense
	width := kEst + kEst/2 + 16
	for attempt := 0; attempt <= sketchEscalations; attempt++ {
		if width > c/2 {
			break
		}
		sys, err := eigen.SketchGram(centered, width, eigen.DefaultOversample, sketchPower, seed+int64(attempt), opts.Workers)
		if err != nil {
			m2, err2 := Fit(x, copts)
			return m2, SketchFallback, err2
		}
		lam := measureCentered(centered, sys.Vectors, opts.Workers)
		order := rankByVariance(lam)
		var cum float64
		accepted := false
		for j, idx := range order {
			cum += lam[idx]
			if cum >= need {
				adoptColumns(m, sys.Vectors, lam, order, j+1, totalVar)
				accepted = true
				break
			}
		}
		if accepted {
			return m, SketchAccept, nil
		}
		// Rejected: these λ̂ are exact full-data measurements, so they give
		// a far better tail estimate than the pilot did. A flat verdict now
		// routes to the dense solver instead of an ever-wider sketch.
		kTrue, ok := tailKEstimate(lam, order, totalVar, need)
		if !ok || kTrue > c/3 {
			m2, err := Fit(x, copts)
			return m2, SketchFallback, err
		}
		widest = sys.Vectors
		next := kTrue + kTrue/4 + 16
		if next < width+32 {
			next = width + 32
		}
		width = next
	}
	if widest != nil {
		if err := refineTVE(m, x, target, copts, seed, widest); err != nil {
			return nil, SketchRefine, err
		}
		return m, SketchRefine, nil
	}
	m2, err := Fit(x, copts)
	return m2, SketchFallback, err
}

// FitKSketch is the sampling-path analogue of FitTVESketch: k is already
// fixed, so a single sketch at width k produces the candidate. With a TVE
// target the exact guard verifies the candidate's top-k columns before
// adoption; without one (knee-selected k) there is nothing to verify
// against, so the sketch basis only warm-starts subspace iteration on the
// exact covariance — the adopted basis then comes from the guaranteed
// path either way.
func FitKSketch(x *mat.Dense, k int, target float64, opts Options, seed int64) (*Model, SketchDecision, error) {
	r, c := x.Dims()
	if r < 2 {
		return nil, SketchFallback, fmt.Errorf("pca: need at least 2 samples, got %d", r)
	}
	if k < 1 || k > c {
		return nil, SketchFallback, fmt.Errorf("pca: k=%d out of range [1,%d]", k, c)
	}
	copts := opts
	copts.Sketch = false
	if c <= sketchMinFeatures || k > c/4 {
		m, err := FitK(x, k, copts, seed)
		return m, SketchFallback, err
	}

	m := &Model{}
	m.Means = mat.ColMeans(x)
	if opts.Standardize {
		m.Scales = mat.ColStds(x, m.Means)
	}
	cbuf := scratch.Floats(r * c)
	defer scratch.PutFloats(cbuf)
	centered := mat.NewDenseData(r, c, cbuf)
	centerInto(centered, x, m.Means, m.Scales)

	sys, err := eigen.SketchGram(centered, k, eigen.DefaultOversample, eigen.DefaultPower, seed, opts.Workers)
	if err != nil {
		m2, err2 := FitK(x, k, copts, seed)
		return m2, SketchFallback, err2
	}
	if target > 0 && target <= 1 && acceptExact(m, x, sys.Vectors, k, target, opts.Workers) {
		return m, SketchAccept, nil
	}

	// Warm refine at the fixed k on the exact covariance.
	covBuf := scratch.Floats(c * c)
	defer scratch.PutFloats(covBuf)
	cov := mat.NewDenseData(c, c, covBuf)
	mat.CovarianceCenteredInto(cov, x, m.Means, m.Scales, opts.Workers)
	m.TotalVar = 0
	for i := 0; i < c; i++ {
		m.TotalVar += cov.At(i, i)
	}
	wsys, _, err := eigen.TopKWarm(cov, k, sys.Vectors, seed, opts.Workers)
	if err != nil {
		return nil, SketchRefine, fmt.Errorf("pca: warm truncated eigendecomposition failed: %w", err)
	}
	clampNonNegative(wsys.Values)
	m.Eigenvalues = wsys.Values
	m.Components = wsys.Vectors
	return m, SketchRefine, nil
}

// pilotEstimate sketches a deterministic row subsample at pilot width,
// measures the candidate columns exactly on the sample, and extrapolates
// the component count the target needs via tailKEstimate. ok is false
// when the pilot fails or is uninformative (no usable tail signal with
// the target unreached).
func pilotEstimate(centered *mat.Dense, target float64, workers int, seed int64) (kEst int, ok bool) {
	r, _ := centered.Dims()
	pilot := centered
	var pilotBuf []float64
	if r > sketchPilotRows {
		pilot, pilotBuf = subsampleRows(centered, sketchPilotRows)
		defer scratch.PutFloats(pilotBuf)
	}
	psys, err := eigen.SketchGram(pilot, sketchPilotK, eigen.DefaultOversample, sketchPower, seed, workers)
	if err != nil {
		return 0, false
	}
	lam := measureCentered(pilot, psys.Vectors, workers)
	var ptotal float64
	for _, v := range pilot.Data() {
		ptotal += v * v
	}
	pden := float64(pilot.Rows() - 1)
	if pden <= 0 {
		pden = 1
	}
	ptotal /= pden
	if ptotal <= 0 {
		return 0, false
	}
	return tailKEstimate(lam, rankByVariance(lam), ptotal, target*ptotal)
}

// tailKEstimate extrapolates how many components a TVE budget needs from a
// partially measured spectrum: lam holds measured per-component variances
// (order ranks them descending), total the exact total variance and need
// the energy the target demands. Inside the measured prefix the answer is
// exact. Beyond it, two tail models bracket reality and the larger
// estimate wins: a linear bound that spends the remaining energy in
// chunks of the smallest measured variance (tight for flat tails,
// optimistic for decaying ones), and a geometric bound that fits a decay
// ratio ρ to the unmeasured energy E_tail via last·ρ/(1−ρ) = E_tail
// (tight for decaying tails, and divergent for flat ones — exactly the
// spectra the caller must route to the dense solver). ok is false when
// the tail carries no usable signal (non-positive energy with the target
// unreached), which callers treat like a flat verdict.
func tailKEstimate(lam []float64, order []int, total, need float64) (kEst int, ok bool) {
	var cum float64
	for j, idx := range order {
		cum += lam[idx]
		if cum >= need {
			return j + 1, true
		}
	}
	s := len(order)
	last := lam[order[s-1]]
	etail := total - cum
	if last <= 0 || etail <= 0 {
		return 0, false
	}
	linear := s + int((need-cum)/last) + 1
	frac := (need - cum) / etail
	if frac >= 1 {
		// The model says the target is unreachable from the unmeasured
		// energy — numerically possible when cum slightly overshoots.
		// Report "needs everything" and let the caller's flat cut decide.
		return maxInt(linear, 1<<30), true
	}
	rho := etail / (etail + last)
	geo := s + int(math.Log(1-frac)/math.Log(rho)) + 1
	return maxInt(linear, geo), true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// subsampleRows copies an evenly spaced, deterministic row subsample of
// src into pooled storage. The caller must PutFloats the returned buffer.
func subsampleRows(src *mat.Dense, rows int) (*mat.Dense, []float64) {
	r, c := src.Dims()
	if rows > r {
		rows = r
	}
	//dpzlint:ignore scratchpair ownership transfers: the returned buffer is the caller's to PutFloats
	buf := scratch.Floats(rows * c)
	out := mat.NewDenseData(rows, c, buf)
	for i := 0; i < rows; i++ {
		copy(out.Row(i), src.Row(i*r/rows))
	}
	return out, buf
}

// measureCentered computes each column's exact Rayleigh quotient
// λ̂_j = ‖C q_j‖²/(r−1) for the already-centered matrix C — the
// measurement core of the acceptance guard, on the jammed sketch multiply
// (deterministic for every worker count, rounding independent of the
// reuse guard's MulInto).
func measureCentered(centered, q *mat.Dense, workers int) []float64 {
	r, _ := centered.Dims()
	kc := q.Cols()
	ybuf := scratch.Floats(r * kc)
	defer scratch.PutFloats(ybuf)
	y := mat.NewDenseData(r, kc, ybuf)
	mat.GemmInto(y, centered, q, workers)
	den := float64(r - 1)
	if den <= 0 {
		den = 1
	}
	lam := make([]float64, kc)
	for i := 0; i < r; i++ {
		row := y.Row(i)
		for j, v := range row {
			lam[j] += v * v
		}
	}
	for j := range lam {
		lam[j] /= den
	}
	return lam
}
