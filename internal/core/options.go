// Package core implements the DPZ compression pipeline (Section IV): block
// decomposition + per-block DCT (Stage 1), k-PCA selection in the DCT
// domain (Stage 2), symmetric uniform quantization with escape literals
// (Stage 3), and a zlib lossless add-on, together with the sampling
// strategy that estimates k and compressibility before compression.
package core

import (
	"fmt"
	"math"

	"dpz/internal/knee"
	"dpz/internal/pca"
	"dpz/internal/quant"
	"dpz/internal/sampling"
)

// Selection names the k-PCA selection method (Algorithm 1).
type Selection int

const (
	// KneePoint detects the maximum-curvature point of the TVE curve
	// (Method 1): aggressive, parameter-free, highest compression ratio.
	KneePoint Selection = iota
	// TVEThreshold keeps the smallest k whose cumulative variance
	// explained reaches Params.TVE (Method 2): the error-aware dial.
	TVEThreshold
)

func (s Selection) String() string {
	switch s {
	case KneePoint:
		return "knee-point"
	case TVEThreshold:
		return "tve"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// StandardizeMode controls pre-PCA feature standardization.
type StandardizeMode int

const (
	// StandardizeAuto standardizes only low-linearity data (mean VIF below
	// the cutoff), the paper's default behaviour.
	StandardizeAuto StandardizeMode = iota
	// StandardizeOff never standardizes.
	StandardizeOff
	// StandardizeOn always standardizes.
	StandardizeOn
)

// Params configures a DPZ compression. The zero value is not valid; start
// from DPZL(), DPZS() or Default().
type Params struct {
	// P is the Stage 3 quantization error bound, relative to the original
	// data's value range (1e-3 for DPZ-l, 1e-4 for DPZ-s, the SZ
	// convention). The quantizer's bounding range is P·B·range about zero.
	P float64
	// Width selects 1-byte or 2-byte bin indexing.
	Width quant.IndexWidth
	// Selection picks Method 1 (knee point) or Method 2 (TVE threshold).
	Selection Selection
	// TVE is the variance-explained target for TVEThreshold ("three-nine"
	// 0.999 … "eight-nine" 0.99999999).
	TVE float64
	// Fit is the curve-fitting mode for knee detection (1D or polyn).
	Fit knee.Fitting
	// UseSampling enables Algorithm 2: k is estimated from T of S row
	// subsets and the PCA basis is fitted on the sampled rows only.
	UseSampling bool
	// Sampling tunes Algorithm 2 when UseSampling is set.
	Sampling sampling.Params
	// Standardize controls pre-PCA standardization.
	Standardize StandardizeMode
	// MaxBlocks caps the block count M (0 = blockio.DefaultMaxBlocks).
	MaxBlocks int
	// Workers bounds goroutine parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives every random choice (sampling subsets, subspace
	// iteration start), making compressions reproducible.
	Seed int64
	// CollectDiagnostics additionally reconstructs the Stage 1&2-only
	// output during compression so Stats reports the per-stage PSNR
	// (Tables III/IV). Costs one extra inverse transform.
	CollectDiagnostics bool
	// SkipDCT bypasses the Stage 1 transform so PCA runs on the raw block
	// data — the single-stage ablation of the paper's multi-stage design
	// claim (Section III-B).
	SkipDCT bool
	// CoeffTruncate zeroes the trailing fraction of each block's DCT
	// coefficients before PCA (the paper's future-work item "analyze the
	// effect of DCT coefficients truncation before applying PCA").
	// 0 disables; must be in [0, 1).
	CoeffTruncate float64
	// RawProjection stores the projection matrix as plain float32 instead
	// of the error-budgeted bit-packed form — the storage ablation.
	RawProjection bool
	// DCT2D applies the separable two-dimensional DCT across the whole
	// M×N block matrix (Z = A_Mᵀ·X·A_N, the paper's Section III-B2
	// extension) instead of the per-block 1-D transform. Decorrelates
	// across blocks as well as within them.
	DCT2D bool
	// ElemBytes is the uncompressed element width used for size and CR
	// accounting and for the literal stream: 4 (single precision, the
	// paper's datasets and the default) or 8 (double precision).
	ElemBytes int
	// UseWavelet replaces the per-block DCT with an orthonormal Haar
	// wavelet transform — the paper's note that PCA in other transform
	// domains should work when coefficients show normality and high
	// information preservation (Section III-B2).
	UseWavelet bool
	// HuffmanIndices entropy-codes the Stage 3 bin indices with canonical
	// Huffman before the zlib add-on — an SZ-style entropy stage that pays
	// off on skewed index distributions (ablation knob).
	HuffmanIndices bool
	// ZLevel sets the zlib add-on compression level, 1 (fastest) to 9
	// (best). 0 keeps zlib's default level, matching previous releases.
	ZLevel int
	// NoIndex disables the format-v3 retrieval-index section, producing a
	// v2 stream byte-identical to what earlier releases wrote. Use it for
	// exact-format reproduction (golden files) or when the few dozen bytes
	// per stream matter more than compressed-domain queries.
	NoIndex bool
	// Basis, when non-nil, activates basis reuse for Stage 2: Candidate
	// (if set) is offered to the reuse-aware fits, and the basis this
	// compression actually used is published back through Fitted for
	// similar tiles to reuse. Reuse never weakens the selection
	// guarantee — a candidate is only adopted after the quality guard
	// verifies it still meets the TVE target on this tile's data.
	Basis *BasisExchange
}

// BasisExchange carries a candidate PCA basis into a compression and the
// fitted basis back out; Stats.BasisDecision reports the reuse decision.
// It is a plain data carrier: the caller owns lifetime and sharing.
type BasisExchange struct {
	// Candidate is the basis offered to Stage 2's guard, or nil.
	Candidate *pca.Basis
	// Fitted is set on success to the leading components this
	// compression used, in a form suitable as a future Candidate.
	Fitted *pca.Basis
}

// DPZL returns the paper's loose scheme: P = 1e-3 with 1-byte indexing.
func DPZL() Params {
	p := Default()
	p.P = 1e-3
	p.Width = quant.Width1
	return p
}

// DPZS returns the paper's strict scheme: P = 1e-4 with 2-byte indexing.
func DPZS() Params {
	p := Default()
	p.P = 1e-4
	p.Width = quant.Width2
	return p
}

// Default returns a baseline parameter set: DPZ-l quantization, TVE
// selection at "five-nine", no sampling.
func Default() Params {
	return Params{
		P:         1e-3,
		Width:     quant.Width1,
		Selection: TVEThreshold,
		TVE:       0.99999,
		Fit:       knee.Linear,
		Seed:      1,
	}
}

// Validate reports the first problem with p, if any.
func (p *Params) Validate() error {
	if p.P <= 0 || math.IsNaN(p.P) || math.IsInf(p.P, 0) {
		return fmt.Errorf("core: P must be positive and finite, got %v", p.P)
	}
	if p.Width != quant.Width1 && p.Width != quant.Width2 {
		return fmt.Errorf("core: invalid index width %d", int(p.Width))
	}
	if p.Selection != KneePoint && p.Selection != TVEThreshold {
		return fmt.Errorf("core: invalid selection %d", int(p.Selection))
	}
	if p.Selection == TVEThreshold && (p.TVE <= 0 || p.TVE > 1) {
		return fmt.Errorf("core: TVE %v out of (0,1]", p.TVE)
	}
	if p.Fit != knee.Linear && p.Fit != knee.Poly {
		return fmt.Errorf("core: invalid fitting mode %d", int(p.Fit))
	}
	if p.MaxBlocks < 0 {
		return fmt.Errorf("core: negative MaxBlocks")
	}
	if p.CoeffTruncate < 0 || p.CoeffTruncate >= 1 {
		return fmt.Errorf("core: CoeffTruncate %v out of [0,1)", p.CoeffTruncate)
	}
	if p.SkipDCT && p.CoeffTruncate > 0 {
		return fmt.Errorf("core: CoeffTruncate requires the DCT stage")
	}
	if p.SkipDCT && p.DCT2D {
		return fmt.Errorf("core: DCT2D conflicts with SkipDCT")
	}
	if p.UseWavelet && (p.SkipDCT || p.DCT2D) {
		return fmt.Errorf("core: UseWavelet conflicts with SkipDCT/DCT2D")
	}
	if p.ElemBytes != 0 && p.ElemBytes != 4 && p.ElemBytes != 8 {
		return fmt.Errorf("core: ElemBytes must be 4 or 8, got %d", p.ElemBytes)
	}
	if p.ZLevel < 0 || p.ZLevel > 9 {
		return fmt.Errorf("core: ZLevel %d out of [0,9]", p.ZLevel)
	}
	return nil
}

// zlibLevel maps Params.ZLevel to the zlib level deflateUnit takes: 0
// is zlib's default, −1 (level 6), and 1–9 are themselves.
func (p *Params) zlibLevel() int {
	if p.ZLevel == 0 {
		return -1
	}
	return p.ZLevel
}

// NinesTVE converts a count of nines to a TVE threshold: NinesTVE(3) =
// 0.999 ("three-nine") … NinesTVE(8) = 0.99999999 ("eight-nine").
func NinesTVE(nines int) float64 {
	return 1 - math.Pow(10, -float64(nines))
}
