package core

import (
	"context"
	"fmt"

	"dpz/internal/blockio"
	"dpz/internal/integrity"
	"dpz/internal/mat"
	"dpz/internal/metrics"
	"dpz/internal/parallel"
	"dpz/internal/quant"
	"dpz/internal/scratch"
	"dpz/internal/transform"
)

// Decompress reverses Compress from the `rank` leading principal
// components of the stored k (0 means all; a rank outside [0, k] is an
// error): it walks the container, checksums and inflates the sections
// those ranks need, dequantizes and inverse-transforms each component's
// scores, recomposes the blocks from them and the projection, and
// restores the original order and length. It returns the reconstructed
// values and the logical dimensions recorded at compression time.
//
// An information-oriented stream is consistent at any reconstruction
// level (the paper's Section IV-C note), so a partial rank is a preview:
// for v2/v3 streams the trailing rank sections are neither checksummed
// nor inflated, and the cost scales with the requested rank, not the
// stored one. Progressive is the same decode, resumable and clamping
// the rank instead of failing. Section inflation, per-component decode
// and the stage boundaries observe ctx, so an abandoned request stops
// early with ctx.Err().
//
// tr (nil for none) receives the decode's spans, all top-level. inflate
// covers walking the container, checksumming the needed sections and
// inflating them (including shard fan-out). dequant covers score and
// projection decode together with the per-rank inverse transform, which
// runs in the same pass over each rank-space row. recompose covers the
// scaled coefficient matrix (with its M-point inverse DCT on 2-D DCT
// streams), the recompose GEMM and the block-to-signal reassembly. total
// covers the whole call.
func Decompress(ctx context.Context, buf []byte, workers, rank int, tr *metrics.Trace) ([]float64, []int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tStart := metrics.Now()
	d, err := newDecoder(buf, workers)
	if err == nil {
		err = d.dataErr()
	}
	if err != nil {
		return nil, nil, err
	}
	if rank < 0 || rank > d.h.k {
		return nil, nil, fmt.Errorf("core: rank %d out of [0,%d]", rank, d.h.k)
	}
	if rank == 0 {
		rank = d.h.k
	}
	tr.Add("inflate", "", tStart)
	if err := d.extend(ctx, rank, tr); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	data, err := d.recompose(rank, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.Add("total", "", tStart)
	return data, d.h.dims, nil
}

// decoder turns the leading rank sections of one walked stream into
// rank space: the side data once, then any rank range [done, hi) on
// request, each v2/v3 rank through decodeRank. Decompress, Progressive
// and DecompressBestEffort all decode through it, so they produce
// identical bits at equal rank.
type decoder struct {
	*stream
	mode          xformMode
	workers       int
	means, scales []float64 // nil until the side data is decoded
	zt            []float64 // rank rows of N values; [0, done) decoded
	projT         []float64 // projection columns of M values; [0, done) decoded
	done          int
}

// newDecoder walks buf. A data decode then checks dataErr; the
// damage-tolerant scan does not.
func newDecoder(buf []byte, workers int) (*decoder, error) {
	s, err := walk(buf)
	if err != nil {
		return nil, err
	}
	return &decoder{stream: s, mode: s.h.mode(), workers: workers}, nil
}

// inflate checksums (v2 and later) and inflates data sections [lo, hi)
// in parallel, splitting the worker budget between the sections and the
// shards inside each, so a stream dominated by one big section still
// scales. raw[s] holds section s from the scratch byte pool (hand it
// back with release) and errs[s] its damage; sections outside [lo, hi)
// stay nil. Only a cancelled ctx fails the call itself.
func (d *decoder) inflate(ctx context.Context, lo, hi int) (raw [][]byte, errs []error, err error) {
	raw, errs = make([][]byte, d.ndata()), make([]error, d.ndata())
	need := hi - lo
	w := d.workers
	if w <= 0 {
		w = parallel.DefaultWorkers()
	}
	inner := (w + need - 1) / max(need, 1)
	err = parallel.ForCtx(ctx, need, d.workers, func(i int) {
		s := lo + i
		sec := d.secs[s]
		if sec.err != nil {
			errs[s] = sec.err
			return
		}
		if d.version >= formatV2 {
			if got := integrity.Checksum(sec.comp); got != sec.crc {
				errs[s] = fmt.Errorf("core: section %d (%s) %w (stored %08x, computed %08x)",
					s, d.sectionName(s), integrity.ErrCRC, sec.crc, got)
				return
			}
		}
		if raw[s], errs[s] = inflateSection(ctx, sec.comp, sec.rawLen, inner); errs[s] != nil {
			errs[s] = fmt.Errorf("core: section %d: %w", s, errs[s])
		}
	})
	return raw, errs, err
}

// release hands inflated sections back to the scratch byte pool. Every
// decode copies out of its sections (quant.Unmarshal, decodeProjection
// and float32FromBytes allocate fresh storage), so they are free once
// decoded.
func release(raw [][]byte) {
	for _, b := range raw {
		scratch.PutBytes(b)
	}
}

// firstErr returns the lowest-index error, so failures are deterministic.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// extend decodes ranks [done, hi), and the side data on first use,
// checksumming and inflating only their sections. Any damage to those
// sections fails it. tr (nil for none) receives its inflate and dequant
// spans.
func (d *decoder) extend(ctx context.Context, hi int, tr *metrics.Trace) error {
	if d.means != nil && hi <= d.done {
		return nil
	}
	lo := 0
	if d.means != nil {
		lo = d.sectionsThrough(d.done)
	}
	t0 := metrics.Now()
	raw, errs, err := d.inflate(ctx, lo, d.sectionsThrough(hi))
	defer release(raw)
	if err == nil {
		err = firstErr(errs)
	}
	if err != nil {
		return err
	}
	tr.Add("inflate", "", t0)
	t1 := metrics.Now()
	err = d.decode(ctx, raw, hi)
	tr.Add("dequant", "", t1)
	return err
}

// decode fills ranks [done, hi) from their inflated sections, decoding
// the side data first when it is still missing. A v1 stream decodes all
// k ranks at once.
func (d *decoder) decode(ctx context.Context, raw [][]byte, hi int) error {
	h := d.h
	if d.means == nil {
		meansAt := 0
		if d.version == formatV1 {
			meansAt = 2
		}
		var scalesSec []byte
		if h.flags&flagStandardized != 0 {
			scalesSec = raw[meansAt+1]
		}
		means, scales, err := decodeSideData(h, raw[meansAt], scalesSec)
		if err != nil {
			return err
		}
		d.means, d.scales = means, scales
	}
	if d.version == formatV1 {
		return d.decodeV1(raw)
	}
	d.grow(hi)
	lo := d.done
	errs := make([]error, hi-lo)
	if err := parallel.ForCtx(ctx, hi-lo, d.workers, func(i int) {
		j := lo + i
		s := d.sectionsThrough(j)
		errs[i] = decodeRank(h, d.mode, j, raw[s], raw[s+1], d.zt[j*h.n:(j+1)*h.n], d.projT[j*h.m:(j+1)*h.m])
	}); err != nil {
		return err
	}
	if err := firstErr(errs); err != nil {
		return err
	}
	d.done = hi
	return nil
}

// grow makes room for r rank rows plus the means carrier, keeping the
// ranks already decoded.
func (d *decoder) grow(r int) {
	h := d.h
	if len(d.zt) >= (r+1)*h.n {
		return
	}
	zt := make([]float64, (r+1)*h.n)
	copy(zt, d.zt[:d.done*h.n])
	projT := make([]float64, r*h.m)
	copy(projT, d.projT[:d.done*h.m])
	d.zt, d.projT = zt, projT
}

// recompose maps the leading r decoded ranks to values. The means
// carrier takes rank row r; when that row holds a decoded rank (a
// Progressive stepping back down), the leading rows are copied out
// first so the decoded ranks survive.
func (d *decoder) recompose(r int, tr *metrics.Trace) ([]float64, error) {
	h := d.h
	zt := d.zt[:(r+1)*h.n]
	if r < d.done {
		zt = make([]float64, (r+1)*h.n)
		copy(zt, d.zt[:r*h.n])
	}
	meansCarrier(d.mode, zt[r*h.n:])
	shape := blockio.Shape{M: h.m, N: h.n, Padded: h.m * h.n}
	return recomposeRankSpace(mat.NewDenseData(r+1, h.n, zt), mat.NewDenseData(r, h.m, d.projT[:r*h.m]),
		d.means, d.scales, shape, h.origLen, d.mode, d.workers, tr)
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

// decodeV1 is the monolithic v1 arm: one quant stream over all N·K
// scores and the whole packed M×K projection, moved into rank space for
// all k ranks at once.
func (d *decoder) decodeV1(raw [][]byte) error {
	h := d.h
	enc, err := quant.Unmarshal(raw[0])
	if err != nil {
		return err
	}
	if enc.Count != h.n*h.k {
		return fmt.Errorf("core: score count %d != N·K = %d", enc.Count, h.n*h.k)
	}
	scores, err := enc.Decode()
	if err != nil {
		return err
	}

	var proj *mat.Dense
	if h.flags&flagRawProj != 0 {
		projF32, err := float32FromBytes(raw[1])
		if err != nil {
			return err
		}
		if len(projF32) != h.m*h.k {
			return fmt.Errorf("core: projection size %d != M·K = %d", len(projF32), h.m*h.k)
		}
		proj = mat.NewDenseData(h.m, h.k, projF32)
	} else {
		proj, err = decodeProjection(raw[1], h.m, h.k)
		if err != nil {
			return err
		}
	}
	y := mat.NewDenseData(h.n, h.k, scores)
	d.zt = rankRows(y, h.k, d.mode, d.workers).Data()
	d.projT = projRows(proj, h.k).Data()
	d.done = h.k
	return nil
}

// decodeRank is the per-rank decoder of every v2/v3 decode: component j's quantized scores
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
// kernel as decodeRank's.
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
// on the worker count, and every entry point — Decompress at any rank,
// Progressive and DecompressBestEffort, all through decoder.recompose —
// produces identical bytes at equal rank.
func recomposeRankSpace(zt, projT *mat.Dense, means, scales []float64, shape blockio.Shape, origLen int, mode xformMode, workers int, tr *metrics.Trace) ([]float64, error) {
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
	tr.Add("recompose", "", t0)
	return out, err
}
