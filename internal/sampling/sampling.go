// Package sampling implements DPZ's sampling strategy (Algorithm 2): it
// estimates the number of principal components k_e from a few row subsets
// of the block data, computes the variance inflation factor (VIF) as the
// compressibility indicator, and predicts a preliminary compression-ratio
// range CR_p before any full compression runs.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dpz/internal/mat"
	"dpz/internal/pca"
)

// VIFCutoff is the conventional collinearity threshold: data whose mean
// VIF falls below it is treated as low-linearity (standardization is
// applied and poor DPZ compressibility is expected).
const VIFCutoff = pca.VIFCutoff

// maxVIFFeatures caps the number of feature columns entering Run's VIF
// correlation matrix (inverting M×M is O(M³)); columns are sampled
// uniformly when M exceeds it.
const maxVIFFeatures = 192

// Params configures the strategy. Zero values select the paper defaults.
type Params struct {
	S    int     // number of row subsets (default 10)
	T    int     // subsets actually analyzed (default 3: first, middle, last)
	SR   float64 // row sampling rate for the VIF estimate (default 0.01)
	TVE  float64 // variance-explained target used for per-subset k (default 0.999)
	Seed int64   // randomness seed (default 1)
	// SelectK, when non-nil, overrides the TVE-threshold rule for picking
	// each subset's k from its cumulative TVE curve — DPZ plugs in
	// knee-point detection here when Method 1 is combined with sampling.
	SelectK func(tveCurve []float64) int
}

func (p Params) withDefaults() Params {
	if p.S <= 0 {
		p.S = 10
	}
	if p.T <= 0 {
		p.T = 3
	}
	if p.T > p.S {
		p.T = p.S
	}
	if p.SR <= 0 || p.SR > 1 {
		p.SR = 0.01
	}
	if p.TVE <= 0 || p.TVE > 1 {
		p.TVE = 0.999
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Report is the output of Run.
type Report struct {
	Ke int // estimated component count (mean of subset ks)
	// S is the number of equal row slices x was split into, and Subsets
	// the indices of the analyzed ones, in analysis order.
	S         int
	Subsets   []int
	SubsetKs  []int     // per-analyzed-subset k
	VIF       []float64 // per-sampled-feature VIF
	MeanVIF   float64
	LowLinear bool    // MeanVIF < VIFCutoff: standardize, expect poor CR
	CRpLow    float64 // preliminary compression-ratio range
	CRpHigh   float64
}

// Run executes the sampling strategy on the block-data matrix x (rows =
// samples/datapoints, cols = features/blocks).
func Run(x *mat.Dense, p Params) (*Report, error) {
	p = p.withDefaults()
	n, m := x.Dims()
	if n < 2*p.S || m < 2 {
		return nil, fmt.Errorf("sampling: matrix %dx%d too small for S=%d subsets", n, m, p.S)
	}
	rep := &Report{S: p.S, Subsets: subsetIndices(p.S, p.T, p.Seed)}

	// Step 1-2: VIF of a row sample (compressibility indicator).
	vif, err := VIF(x, p.SR, maxVIFFeatures, p.Seed)
	if err != nil {
		return nil, err
	}
	rep.VIF = vif
	var sum float64
	for _, v := range vif {
		sum += v
	}
	rep.MeanVIF = sum / float64(len(vif))
	rep.LowLinear = rep.MeanVIF < VIFCutoff

	// Step 3-5: subset ks. The paper's empirical note: on high-linearity
	// block data the first, middle and last subsets estimate best (they
	// span the data's locality); extra subsets beyond 3 are drawn
	// randomly.
	ks := make([]int, 0, len(rep.Subsets))
	for _, si := range rep.Subsets {
		lo, hi := subsetRange(n, p.S, si)
		sub := mat.NewDense(hi-lo, m)
		for r := lo; r < hi; r++ {
			copy(sub.Row(r-lo), x.Row(r))
		}
		// k selection only needs the subset's eigenvalue spectrum, never a
		// basis, so the eigenvalues-only solver does the work at a
		// fraction of a full PCA fit.
		vals, totalVar, err := pca.Spectrum(sub, pca.Options{Standardize: rep.LowLinear})
		if err != nil {
			return nil, fmt.Errorf("sampling: subset %d: %w", si, err)
		}
		curve := pca.TVECurveOf(vals, totalVar)
		var k int
		if p.SelectK != nil {
			k = p.SelectK(curve)
		} else {
			k = len(curve)
			for i, v := range curve {
				if v >= p.TVE {
					k = i + 1
					break
				}
			}
		}
		ks = append(ks, min(max(k, 1), m))
	}
	rep.SubsetKs = ks
	var ksum int
	for _, k := range ks {
		ksum += k
	}
	rep.Ke = min(max(int(math.Round(float64(ksum)/float64(len(ks)))), 1), m)

	// Step 6: preliminary CR range. CR_stage1&2 counts the stored
	// artifacts against the float32 original (scores N×k, projection
	// matrix M×k, means M — all float32); the Stage 3 and zlib factors use
	// the paper's empirical bands (1.9–2.5× and ~1.1–1.4×).
	rep.CRpLow, rep.CRpHigh = CRpRange(n, m, rep.Ke)
	return rep, nil
}

// Rows returns the rows of x that Run analyzed, each once: the subsets
// in Subsets, in analysis order, stacked into one matrix. x must be the
// matrix the report came from. Algorithm 2's Stage 2 fits these rows.
func (r *Report) Rows(x *mat.Dense) *mat.Dense {
	n, m := x.Dims()
	var idx []int
	for _, si := range r.Subsets {
		lo, hi := subsetRange(n, r.S, si)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
	}
	out := mat.NewDense(len(idx), m)
	for at, i := range idx {
		copy(out.Row(at), x.Row(i))
	}
	return out
}

// subsetRange is the row range [lo, hi) of subset si when n rows are cut
// into s equal slices; the last slice also takes the remainder.
func subsetRange(n, s, si int) (lo, hi int) {
	rows := n / s
	lo = si * rows
	hi = lo + rows
	if si == s-1 {
		hi = n
	}
	return lo, hi
}

// CRpRange predicts the total compression-ratio band for an N×M block
// matrix compressed with k components.
func CRpRange(n, m, k int) (lo, hi float64) {
	orig := 4.0 * float64(n) * float64(m)
	scores := 4.0 * float64(n) * float64(k)
	side := 4.0 * float64(m*k+m)
	// Stage 3 quantization applies to the score stream; zlib applies to
	// everything stored. The bands follow the paper's empirical ranges
	// (Stage 3 ≈ 1.9–2.5×, zlib 1×–5× with dataset-family means 1.2–2.4×).
	lowStage3, highStage3 := 1.8, 2.6
	lowZlib, highZlib := 1.1, 2.4
	worst := scores/(lowStage3*lowZlib) + side/lowZlib
	best := scores/(highStage3*highZlib) + side/highZlib
	return orig / worst, orig / best
}

// subsetIndices picks which of the S subsets to analyze: first, middle,
// last, then random distinct extras.
func subsetIndices(s, t int, seed int64) []int {
	base := []int{0, s / 2, s - 1}
	seen := map[int]bool{}
	out := make([]int, 0, t)
	for _, b := range base {
		if len(out) == t {
			return out
		}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for len(out) < t {
		c := rng.Intn(s)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// VIF computes the variance inflation factor of each (sampled) feature of
// x: pca.CorrelationVIF on SampleCorrelation's matrix. Algorithm 2 reports
// them; a fit that only needs the standardize decision runs
// pca.LowLinearity on the same matrix instead, and the exact Stage 2 fit
// reads it off its own covariance (pca.FitExact).
func VIF(x *mat.Dense, sr float64, maxFeatures int, seed int64) ([]float64, error) {
	corr, err := SampleCorrelation(x, sr, maxFeatures, seed)
	if err != nil {
		return nil, err
	}
	vif, err := pca.CorrelationVIF(corr)
	if err != nil {
		return nil, fmt.Errorf("sampling: VIF inversion: %w", err)
	}
	return vif, nil
}

// SampleCorrelation is the correlation matrix the VIF probe reads: that
// of a row sample of x at rate sr, at least four rows and twice as tall
// as it is wide. Columns beyond maxFeatures are uniformly subsampled.
func SampleCorrelation(x *mat.Dense, sr float64, maxFeatures int, seed int64) (*mat.Dense, error) {
	n, m := x.Dims()
	if n < 4 || m < 2 {
		return nil, fmt.Errorf("sampling: matrix %dx%d too small for VIF", n, m)
	}
	if sr <= 0 || sr > 1 {
		return nil, fmt.Errorf("sampling: sampling rate %v out of (0,1]", sr)
	}
	rng := rand.New(rand.NewSource(seed))
	nrows := int(float64(n) * sr)
	if nrows < 4 {
		nrows = 4
	}
	if nrows > n {
		nrows = n
	}
	cols := m
	if maxFeatures > 0 && cols > maxFeatures {
		cols = maxFeatures
	}
	// A correlation matrix estimated from fewer samples than features is
	// rank deficient and its inverse diagonal is meaningless; keep the
	// sample at least twice as tall as it is wide, shrinking the feature
	// sample if the row budget cannot stretch.
	if nrows < 2*cols {
		nrows = 2 * cols
		if nrows > n {
			nrows = n
			cols = nrows / 2
			if cols < 2 {
				return nil, fmt.Errorf("sampling: %d rows cannot support a VIF estimate", n)
			}
		}
	}
	colIdx := sampleDistinct(m, cols, rng)
	rowIdx := sampleDistinct(n, nrows, rng)
	sub := mat.NewDense(nrows, cols)
	for i, r := range rowIdx {
		src := x.Row(r)
		dst := sub.Row(i)
		for j, c := range colIdx {
			dst[j] = src[c]
		}
	}
	return mat.Correlation(sub), nil
}

// sampleDistinct draws `want` distinct indices from [0, n) — all of them,
// in order, when want == n.
func sampleDistinct(n, want int, rng *rand.Rand) []int {
	if want >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)[:want]
	// Keep original order for locality.
	sort.Ints(perm)
	return perm
}
