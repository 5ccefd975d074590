package core

import (
	"context"
	"fmt"
	"time"

	"dpz/internal/blockio"
	"dpz/internal/mat"
	"dpz/internal/metrics"
	"dpz/internal/parallel"
	"dpz/internal/quant"
	"dpz/internal/transform"
)

// DecodeStats reports per-stage wall time for one decompression — the
// decode-side mirror of Stats' compress timings, consumed by dpzbench's
// stage_ns records and the regression gate.
type DecodeStats struct {
	// TimeInflate covers parsing the container, checksumming the needed
	// sections and inflating them (including shard fan-out).
	TimeInflate time.Duration
	// TimeDequant covers score and projection decode together with the
	// per-rank inverse transform, which runs in the same pass over each
	// rank-space row.
	TimeDequant time.Duration
	// TimeRecompose covers building the scaled coefficient matrix (with
	// its M-point inverse DCT on 2-D DCT streams), the recompose GEMM and
	// the block-to-signal reassembly.
	TimeRecompose time.Duration
	TimeTotal     time.Duration
	// RanksUsed is the component count actually reconstructed.
	RanksUsed int
}

// Decompress reverses Compress: it parses the container, dequantizes and
// inverse-transforms each component's scores, recomposes the blocks from
// them and the projection, and restores the original order and length.
// It returns the reconstructed values and the logical dimensions recorded
// at compression time.
func Decompress(buf []byte, workers int) ([]float64, []int, error) {
	return DecompressRank(buf, workers, 0)
}

// DecompressContext is Decompress with cooperative cancellation: section
// inflation, per-component decode and the stage-boundary transitions all
// observe ctx, so an abandoned request stops early with ctx.Err().
func DecompressContext(ctx context.Context, buf []byte, workers int) ([]float64, []int, error) {
	return DecompressRankContext(ctx, buf, workers, 0)
}

// DecompressRank reconstructs from only the `rank` leading principal
// components of the stored k (0 means all). An information-oriented stream
// is consistent at any reconstruction level (the paper's Section IV-C
// note), so this acts as progressive decompression: a cheap preview from a
// few components, full fidelity from all of them. For v2/v3 streams the
// trailing rank sections are neither checksummed nor inflated, so the cost
// scales with the requested rank, not the stored one.
func DecompressRank(buf []byte, workers, rank int) ([]float64, []int, error) {
	return DecompressRankContext(context.Background(), buf, workers, rank)
}

// DecompressRankContext is DecompressRank with cooperative cancellation.
func DecompressRankContext(ctx context.Context, buf []byte, workers, rank int) ([]float64, []int, error) {
	return decompressRankStats(ctx, buf, workers, rank, nil)
}

// DecompressStats is Decompress plus the per-stage timing breakdown.
// rank follows DecompressRank semantics (0 means all components).
func DecompressStats(buf []byte, workers, rank int) ([]float64, []int, DecodeStats, error) {
	return DecompressStatsContext(context.Background(), buf, workers, rank)
}

// DecompressStatsContext is DecompressStats with cooperative cancellation.
func DecompressStatsContext(ctx context.Context, buf []byte, workers, rank int) ([]float64, []int, DecodeStats, error) {
	var st DecodeStats
	data, dims, err := decompressRankStats(ctx, buf, workers, rank, &st)
	return data, dims, st, err
}

// decompressRankStats is the shared rank-decode driver. st may be nil;
// when set, stage boundaries are timed into it.
func decompressRankStats(ctx context.Context, buf []byte, workers, rank int, st *DecodeStats) ([]float64, []int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tStart := metrics.Now()
	c, err := decodeContainerLimit(ctx, buf, workers, rank)
	if err != nil {
		return nil, nil, err
	}
	if st != nil {
		st.TimeInflate = metrics.Since(tStart)
	}
	data, dims, err := decompressParsed(ctx, c, workers, rank, st)
	// The inflated sections are pooled and fully copied out of by the
	// decode above, so they go back to the scratch pool here. The caller's
	// stream (c.index aliases it) is never pooled.
	c.release()
	if err != nil {
		return nil, nil, err
	}
	if st != nil {
		st.TimeTotal = metrics.Since(tStart)
	}
	return data, dims, nil
}

// DecompressRanks is the preview entry point: it reconstructs from the
// `ranks` leading components, clamping a request beyond the stored k
// instead of failing, and reports the rank actually used. ranks <= 0
// means a full decode. It is DecompressRank plus the clamp — previews ask
// for "about this much fidelity" and should not have to know k first.
func DecompressRanks(buf []byte, ranks, workers int) ([]float64, []int, int, error) {
	return DecompressRanksContext(context.Background(), buf, ranks, workers)
}

// DecompressRanksContext is DecompressRanks with cooperative cancellation.
func DecompressRanksContext(ctx context.Context, buf []byte, ranks, workers int) ([]float64, []int, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h, _, _, err := parseFixedHeader(buf)
	if err != nil {
		return nil, nil, 0, err
	}
	used := h.k
	if ranks > 0 && ranks < h.k {
		used = ranks
	}
	data, dims, err := DecompressRankContext(ctx, buf, workers, used)
	if err != nil {
		return nil, nil, 0, err
	}
	return data, dims, used, nil
}

// decompressParsed reconstructs from an already-parsed container. It is
// shared by DecompressRank and DecompressBestEffort (which hands in a
// container whose damaged trailing rank sections were dropped). st may be
// nil; when set, the dequant and recompose stages are timed into it.
//
// Every decode — any rank, transform mode or format version — takes the
// one rank-space path: the decoded components become inverse-transformed
// rank rows, and recomposeRankSpace maps them to value space.
func decompressParsed(ctx context.Context, c container, workers, rank int, st *DecodeStats) ([]float64, []int, error) {
	h := c.h
	if rank < 0 || rank > h.k {
		return nil, nil, fmt.Errorf("core: rank %d out of [0,%d]", rank, h.k)
	}
	useK := h.k
	if rank != 0 {
		useK = rank
	}
	if st != nil {
		st.RanksUsed = useK
	}

	t0 := metrics.Now()
	means, scales, err := decodeSideData(h, c.means, c.scales)
	if err != nil {
		return nil, nil, err
	}
	mode := h.mode()
	var zt, projT *mat.Dense
	if c.version == formatV1 {
		zt, projT, err = assembleRankSpaceV1(c, useK, mode, workers)
	} else {
		zt, projT, err = assembleRankSpaceV2(ctx, c, useK, mode, workers)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if st != nil {
		st.TimeDequant = metrics.Since(t0)
	}

	shape := blockio.Shape{M: h.m, N: h.n, Padded: h.m * h.n}
	data, err := recomposeRankSpace(zt, projT, means, scales, shape, h.origLen, mode, workers, st)
	if err != nil {
		return nil, nil, err
	}
	return data, h.dims, nil
}

// decodeSideData decodes the feature means and, for a standardized
// stream, the feature scales (nil otherwise).
func decodeSideData(h header, meansSec, scalesSec []byte) (means, scales []float64, err error) {
	if means, err = float32FromBytes(meansSec); err != nil {
		return nil, nil, err
	}
	if len(means) != h.m {
		return nil, nil, fmt.Errorf("core: means size %d != M = %d", len(means), h.m)
	}
	if h.flags&flagStandardized == 0 {
		return means, nil, nil
	}
	if scales, err = float32FromBytes(scalesSec); err != nil {
		return nil, nil, err
	}
	if len(scales) != h.m {
		return nil, nil, fmt.Errorf("core: scales size %d != M = %d", len(scales), h.m)
	}
	return means, scales, nil
}

// assembleRankSpaceV1 decodes the joint v1 score stream and projection
// matrix and moves their leading useK components into rank space.
func assembleRankSpaceV1(c container, useK int, mode xformMode, workers int) (*mat.Dense, *mat.Dense, error) {
	h := c.h
	enc, err := quant.Unmarshal(c.scores[0])
	if err != nil {
		return nil, nil, err
	}
	if enc.Count != h.n*h.k {
		return nil, nil, fmt.Errorf("core: score count %d != N·K = %d", enc.Count, h.n*h.k)
	}
	scores, err := enc.Decode()
	if err != nil {
		return nil, nil, err
	}

	var proj *mat.Dense
	if h.flags&flagRawProj != 0 {
		projF32, err := float32FromBytes(c.proj[0])
		if err != nil {
			return nil, nil, err
		}
		if len(projF32) != h.m*h.k {
			return nil, nil, fmt.Errorf("core: projection size %d != M·K = %d", len(projF32), h.m*h.k)
		}
		proj = mat.NewDenseData(h.m, h.k, projF32)
	} else {
		proj, err = decodeProjection(c.proj[0], h.m, h.k)
		if err != nil {
			return nil, nil, err
		}
	}
	y := mat.NewDenseData(h.n, h.k, scores)
	return rankRows(y, useK, mode, workers), projRows(proj, useK), nil
}

// assembleRankSpaceV2 decodes the leading useK components of a v2/v3
// container into rank space, in parallel across components: row j of the
// (useK+1)×N result is component j's inverse-transformed scores and row
// useK the means carrier; row j of the useK×M projection result is
// component j's projection column. The N×useK score matrix never
// materializes.
func assembleRankSpaceV2(ctx context.Context, c container, useK int, mode xformMode, workers int) (*mat.Dense, *mat.Dense, error) {
	h := c.h
	zt := mat.NewDense(useK+1, h.n)
	projT := mat.NewDense(useK, h.m)
	errs := make([]error, useK)
	err := parallel.ForCtx(ctx, useK+1, workers, func(j int) {
		if j == useK {
			meansCarrier(mode, zt.Row(j))
			return
		}
		errs[j] = decodeRank(h, mode, j, c.scores[j], c.proj[j], zt.Row(j), projT.Row(j))
	})
	if err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return zt, projT, nil
}

// decodeRank is the per-rank decoder of every v2/v3 decode (the fused
// assembly above and Progressive): component j's quantized scores
// dequantize straight into its rank-space row, which is inverse-
// transformed in place while cache-hot, and its projection column decodes
// into pcol (length M).
func decodeRank(h header, mode xformMode, j int, scoreSec, projSec []byte, row, pcol []float64) error {
	enc, err := quant.Unmarshal(scoreSec)
	if err != nil {
		return fmt.Errorf("core: rank %d scores: %w", j, err)
	}
	if enc.Count != h.n {
		return fmt.Errorf("core: rank %d score count %d != N = %d", j, enc.Count, h.n)
	}
	if err := enc.DecodeInto(row); err != nil {
		return fmt.Errorf("core: rank %d scores: %w", j, err)
	}
	inverseRow(mode, row)
	if err := decodeProjSection(projSec, h.flags&flagRawProj != 0, pcol); err != nil {
		return fmt.Errorf("core: rank %d projection: %w", j, err)
	}
	return nil
}

// decodeProjSection decodes one per-component projection section — raw
// float32 or the budgeted bit-packed column — into dst (length M).
func decodeProjSection(sec []byte, raw bool, dst []float64) error {
	if raw {
		return float32IntoFloats(dst, sec)
	}
	pm, err := decodeProjection(sec, len(dst), 1)
	if err != nil {
		return err
	}
	copy(dst, pm.Data())
	return nil
}

// xformMode names the Stage 1 transform applied at compression time.
type xformMode int

const (
	xform1D xformMode = iota // per-block 1-D DCT (default)
	xformNone
	xform2D
	xformHaar
)

func transformMode(skip, twoD, wavelet bool) xformMode {
	switch {
	case skip:
		return xformNone
	case twoD:
		return xform2D
	case wavelet:
		return xformHaar
	default:
		return xform1D
	}
}

// mode returns the Stage 1 transform recorded in the stream's flags.
func (h header) mode() xformMode {
	return transformMode(h.flags&flagNoDCT != 0, h.flags&flag2DDCT != 0, h.flags&flagWavelet != 0)
}

// inverseRow applies the inverse Stage 1 transform along one rank-space
// row: the N-point inverse DCT for both DCT modes (the 2-D mode's M-point
// half runs on the recompose coefficients instead), the inverse Haar
// transform, or nothing.
func inverseRow(mode xformMode, row []float64) {
	switch mode {
	case xform1D, xform2D:
		p := transform.GetPlan(len(row))
		p.Inverse(row)
		transform.PutPlan(p)
	case xformHaar:
		transform.HaarInverse(row)
	}
}

// meansCarrier fills row with the inverse transform of the all-ones row,
// which carries the feature means through the recompose.
func meansCarrier(mode xformMode, row []float64) {
	for i := range row {
		row[i] = 1
	}
	inverseRow(mode, row)
}

// rankRows moves the leading r score columns of y (N×k) into rank space:
// row j of the (r+1)×N result is column j, inverse-transformed, and row r
// is the means carrier. Each row passes through the same inverseRow
// kernel as in the fused v2 assembly.
func rankRows(y *mat.Dense, r int, mode xformMode, workers int) *mat.Dense {
	zt := mat.NewDense(r+1, y.Rows())
	parallel.ForChunks(r+1, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if j == r {
				meansCarrier(mode, zt.Row(j))
				continue
			}
			y.Col(j, zt.Row(j))
			inverseRow(mode, zt.Row(j))
		}
	})
	return zt
}

// projRows returns the leading r columns of proj (M×k) as the rows of an
// r×M matrix, the projection layout recomposeRankSpace takes.
func projRows(proj *mat.Dense, r int) *mat.Dense {
	projT := mat.NewDense(r, proj.Rows())
	for j := 0; j < r; j++ {
		proj.Col(j, projT.Row(j))
	}
	return projT
}

// reconstructRankSpace inverts Stages 2 and 1 from an N×k score matrix y
// and the k×M projection rows projT: it moves y's columns into rank space
// and recomposes. v1 streams and the compress-time diagnostics hold their
// scores in this layout.
func reconstructRankSpace(y, projT *mat.Dense, means, scales []float64, shape blockio.Shape, origLen int, mode xformMode, workers int) ([]float64, error) {
	zt := rankRows(y, y.Cols(), mode, workers)
	return recomposeRankSpace(zt, projT, means, scales, shape, origLen, mode, workers, nil)
}

// recomposeRankSpace is the one map from rank space to value space. The
// decode is linear in the decoded components (the paper's Section IV-C
// "consistent at any reconstruction level"):
//
//	block_i = scale_i · Σ_j proj[i,j]·T⁻¹(y_j)  +  mean_i·T⁻¹(1_N)
//
// with T⁻¹ the inverse Stage 1 transform along a row (inverseRow), so it
// costs r+1 row transforms (done by the caller: zt holds the r
// inverse-transformed rank rows plus the means carrier) and one GEMM,
// blocks = C·zt with C[i] = [scale_i·proj_i | mean_i]; projT holds the
// projection columns as rows. For 2-D DCT streams the M-point inverse DCT
// runs down the r+1 columns of C, since IDCT2D(C·Z) = IDCT_M(C)·IDCT_N(Z).
// GemmInto gives each output row to one worker, so the bits do not depend
// on the worker count, and every entry point — full or partial,
// DecompressRank, DecompressRanks, DecompressBestEffort, Progressive —
// produces identical bytes at equal rank.
func recomposeRankSpace(zt, projT *mat.Dense, means, scales []float64, shape blockio.Shape, origLen int, mode xformMode, workers int, st *DecodeStats) ([]float64, error) {
	k := projT.Rows()
	if zt.Rows() != k+1 || zt.Cols() != shape.N || projT.Cols() != shape.M {
		return nil, fmt.Errorf("core: recompose shape mismatch (%dx%d rank rows, %dx%d projection rows, %d blocks of %d)",
			zt.Rows(), zt.Cols(), k, projT.Cols(), shape.M, shape.N)
	}
	t0 := metrics.Now()
	coefT := mat.NewDense(k+1, shape.M)
	for j := 0; j < k; j++ {
		crow := coefT.Row(j)
		copy(crow, projT.Row(j))
		if scales != nil {
			for i, s := range scales {
				crow[i] *= s
			}
		}
	}
	copy(coefT.Row(k), means)
	if mode == xform2D {
		transform.InverseRows(coefT.Data(), k+1, shape.M, workers)
	}
	coef := mat.NewDense(shape.M, k+1)
	mat.TransposeInto(coef, coefT)
	blocks := mat.NewDense(shape.M, shape.N)
	mat.GemmInto(blocks, coef, zt, workers)
	out, err := blockio.Recompose(blocks, origLen)
	if st != nil {
		st.TimeRecompose = metrics.Since(t0)
	}
	return out, err
}
