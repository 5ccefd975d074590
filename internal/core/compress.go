package core

import (
	"context"
	"fmt"
	"math"

	"dpz/internal/blockio"
	"dpz/internal/knee"
	"dpz/internal/mat"
	"dpz/internal/metrics"
	"dpz/internal/parallel"
	"dpz/internal/pca"
	"dpz/internal/quant"
	"dpz/internal/retrieval"
	"dpz/internal/sampling"
	"dpz/internal/scratch"
	"dpz/internal/stats"
	"dpz/internal/transform"
)

// Stats records everything the evaluation section reports about one
// compression: sizes, per-stage compression ratios (Table III), optional
// per-stage accuracy (Table IV), the stage trace (Figure 9), and the
// sampling report when Algorithm 2 ran.
type Stats struct {
	OrigBytes       int // original size at 4 bytes/value (float32 basis)
	CompressedBytes int

	M, N, K      int
	TVEAchieved  float64
	Standardized bool
	OutOfRange   int // Stage 3 escape literals

	CRTotal   float64 // OrigBytes / CompressedBytes
	CRStage12 float64 // decomposition + DCT + k-PCA reduction factor
	CRStage3  float64 // quantization reduction factor
	CRZlib    float64 // lossless add-on reduction factor

	// Stage12PSNR / FinalPSNR are filled only when CollectDiagnostics is
	// set: the PSNR of the k-PCA-only reconstruction (exact scores) and of
	// the full pipeline (quantized scores + float32 side data).
	Stage12PSNR float64
	FinalPSNR   float64

	// BasisDecision reports which path the basis-reuse layer took for
	// Stage 2 (ReuseOff when Params.Basis was nil).
	BasisDecision pca.ReuseDecision

	// Trace holds the stage spans: decompose, dct, pca, quant and zlib
	// at the top level, total around the whole call, and under pca the
	// spans of Stage 2. Those are sampling (Algorithm 2's sampling.Run
	// and the analyzed rows), vif (the auto-standardize probe), guard
	// (the basis-reuse candidate check), gram (the fit's covariance),
	// eig (its eigensolve, k selection included) and project (the
	// projection onto the k retained components). A span that did not
	// run is absent.
	Trace metrics.Trace

	Sampling *sampling.Report
}

// Compressed is the result of Compress.
type Compressed struct {
	Bytes []byte
	Stats Stats
}

// Compress runs the full DPZ pipeline on data with the given logical
// dimensions (row-major, slowest first; the product must equal len(data)).
func Compress(data []float64, dims []int, p Params) (*Compressed, error) {
	return CompressContext(context.Background(), data, dims, p)
}

// CompressContext is Compress with cooperative cancellation: the pipeline
// checks ctx at every stage boundary and inside the per-component and
// per-section parallel loops, so a cancelled or timed-out request stops
// burning CPU mid-pipeline instead of running to completion. The partial
// work is discarded; the return is (nil, ctx.Err()).
func CompressContext(ctx context.Context, data []float64, dims []int, p Params) (*Compressed, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("core: non-positive dimension in %v", dims)
		}
		total *= d
	}
	if total != len(data) {
		return nil, fmt.Errorf("core: dims %v describe %d values, data has %d", dims, total, len(data))
	}
	// The retrieval-index value statistics ride along with the mandatory
	// NaN scan — no extra pass over the data.
	minV, maxV := math.Inf(1), math.Inf(-1)
	var sumV, sumSq float64
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite value at index %d (NaN/Inf input unsupported)", i)
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		sumV += v
		sumSq += v * v
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	elemBytes := p.ElemBytes
	if elemBytes == 0 {
		elemBytes = 4
	}
	var st Stats
	st.OrigBytes = elemBytes * len(data)
	tr := &st.Trace
	tStart := metrics.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 1a: block decomposition.
	t0 := metrics.Now()
	shape, err := blockio.ShapeFor(dims, p.MaxBlocks)
	if err != nil {
		return nil, err
	}
	blocks, err := blockio.Decompose(data, shape)
	if err != nil {
		return nil, err
	}
	st.M, st.N = shape.M, shape.N
	tr.Add("decompose", "", t0)

	// Stage 1b: per-block DCT (skippable for the single-stage ablation),
	// with optional trailing-coefficient truncation.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 = metrics.Now()
	if !p.SkipDCT {
		switch {
		case p.DCT2D:
			transform.DCT2D(blocks.Data(), shape.M, shape.N, p.Workers)
		case p.UseWavelet:
			transform.HaarForwardRows(blocks.Data(), shape.M, shape.N, p.Workers)
		default:
			transform.ForwardRows(blocks.Data(), shape.M, shape.N, p.Workers)
		}
		if p.CoeffTruncate > 0 {
			keep := int(float64(shape.N) * (1 - p.CoeffTruncate))
			if keep < 1 {
				keep = 1
			}
			bd := blocks.Data()
			for r := 0; r < shape.M; r++ {
				row := bd[r*shape.N : (r+1)*shape.N]
				for i := keep; i < shape.N; i++ {
					row[i] = 0
				}
			}
		}
	}
	tr.Add("dct", "", t0)

	// Stage 2: k-PCA in the DCT domain. Samples are coefficient positions
	// (N rows), features are blocks (M columns).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 = metrics.Now()
	x := blocks.T()

	// Both arms choose k (or how to select it) and the standardize bit,
	// then end in the same fit: FitReuse when a basis exchange is active
	// and k is not a knee of the full spectrum, FitExact otherwise.
	fitX := x
	popts := pca.Options{Standardize: p.Standardize == StandardizeOn, Workers: p.Workers, Seed: seed}
	auto := p.Standardize == StandardizeAuto
	var kneeK func(curve []float64) int
	if p.Selection == KneePoint {
		fit := p.Fit
		kneeK = func(curve []float64) int { return knee.Detect(curve, fit) }
	}
	var sel pca.Selection
	switch {
	case p.UseSampling:
		sp := p.Sampling
		if sp.Seed == 0 {
			sp.Seed = seed
		}
		if sp.TVE == 0 && p.Selection == TVEThreshold {
			sp.TVE = p.TVE
		}
		if kneeK != nil {
			sp.SelectK = kneeK
		}
		ts := metrics.Now()
		rep, err := sampling.Run(x, sp)
		if err != nil {
			return nil, fmt.Errorf("core: sampling strategy: %w", err)
		}
		st.Sampling = rep
		if auto {
			popts.Standardize = rep.LowLinear
		}
		// Fit k_e components on the rows the strategy analyzed (Algorithm
		// 2's Stage 2 saving), then project the full data below. The
		// reuse guard can only verify a candidate against an explicit TVE
		// target, so knee-selected k keeps the warm refine but never
		// accepts outright.
		fitX = rep.Rows(x)
		tr.Add("sampling", pca.StageSpan, ts)
		sel = pca.Selection{K: rep.Ke}
		if p.Selection == TVEThreshold {
			sel.TVE = sp.TVE
		}
	default:
		// One covariance feeds the standardize probe and the eigensolve;
		// k is chosen from the eigenvalues, and only the vectors kept
		// (plus a published basis's margin) are computed. Knee selection
		// needs the full spectrum, so it runs the cold fit even when
		// reuse is on; TVE reuse runs the same probe on the correlation
		// matrix of a row sample.
		sel = pca.Selection{TVE: p.TVE, Knee: kneeK}
		if p.Basis != nil {
			sel.Extra = pca.BasisMargin
		}
		if auto {
			if p.Basis != nil && sel.Knee == nil {
				tv := metrics.Now()
				if corr, err := sampling.SampleCorrelation(x, 0.01, 0, seed); err == nil {
					popts.Standardize = pca.LowLinearity(corr)
				}
				tr.Add("vif", pca.StageSpan, tv)
			} else {
				sel.AutoStandardize = true
			}
		}
	}
	var model *pca.Model
	var fit pca.FitReport
	if p.Basis != nil && sel.Knee == nil {
		model, fit, err = pca.FitReuse(fitX, sel, popts, p.Basis.Candidate, tr)
	} else {
		model, fit, err = pca.FitExact(fitX, sel, popts, tr)
		fit.Reuse = pca.ReuseCold
	}
	if err != nil {
		return nil, fmt.Errorf("core: k-PCA: %w", err)
	}
	k := fit.K
	st.K, st.Standardized = k, fit.Standardized
	if ex := p.Basis; ex != nil {
		ex.Decision, st.BasisDecision = fit.Reuse, fit.Reuse
		ex.Fitted = publishBasis(model, k, st.Standardized)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tp := metrics.Now()
	scores := model.TransformW(x, k, p.Workers)
	tr.Add("project", pca.StageSpan, tp)
	var kept float64
	for i := 0; i < k && i < len(model.Eigenvalues); i++ {
		kept += model.Eigenvalues[i]
	}
	if model.TotalVar > 0 {
		st.TVEAchieved = kept / model.TotalVar
	} else {
		st.TVEAchieved = 1
	}
	tr.Add(pca.StageSpan, "", t0)

	// Stage 3: symmetric uniform quantization of the score stream. The
	// configured P is relative to the original data's value range (the SZ
	// convention: "1E-3, 1E-4" mean fractions of the range), so the bin
	// width 2·P·range sets a quantization noise floor proportional to the
	// data scale; large leading-component scores escape to the literal
	// stream and are saved as float32, as in the paper's Section IV-C.
	//
	// Each component's scores are quantized into their own stream: the v2
	// container checksums and stores rank regions independently, so a
	// damaged tail still decodes best-effort from the leading components.
	// Quantization is elementwise, so the per-column split reconstructs
	// identically to the joint stream.
	t0 = metrics.Now()
	if 2*k+3 > math.MaxUint16 { // means + scales + rank pairs + index section
		return nil, fmt.Errorf("core: %d components exceed the container's section table", k)
	}
	r := stats.Range(data)
	pa := p.P * r
	if pa == 0 || math.IsNaN(pa) || math.IsInf(pa, 0) {
		pa = p.P
	}
	qz, err := quant.New(pa, p.Width)
	if err != nil {
		return nil, fmt.Errorf("core: quantizer: %w", err)
	}
	qz.Lit32 = elemBytes == 4
	// Components quantize in parallel, each with its own scratch column;
	// quantization is elementwise, so the split changes nothing in the
	// output. The worker budget divides between the component loop and the
	// chunked encode inside each component.
	encs := make([]*quant.Encoded, k)
	innerW := workersPer(p.Workers, k)
	if err := parallel.ForCtx(ctx, k, p.Workers, func(j int) {
		col := scratch.Floats(shape.N)
		for i := 0; i < shape.N; i++ {
			col[i] = scores.At(i, j)
		}
		encs[j] = qz.Encode(col, innerW)
		scratch.PutFloats(col)
	}); err != nil {
		return nil, err
	}
	for j := 0; j < k; j++ {
		st.OutOfRange += encs[j].OutOfRange()
	}
	tr.Add("quant", "", t0)

	// Assemble + zlib. The projection matrix is quantized per column with
	// an error budget tied to the Stage 3 bound (see projcodec.go); each
	// column becomes its own section next to its score stream.
	t0 = metrics.Now()
	proj := model.ProjectionMatrix(k)
	// Per-rank coefficient energy for the retrieval index shares the
	// existing scan over the score matrix; the serial row-major order keeps
	// the sums byte-identical for every worker count.
	colScale := make([]float64, k)
	colEnergy := make([]float64, k)
	for i := 0; i < shape.N; i++ {
		row := scores.Row(i)
		for j := 0; j < k; j++ {
			v := row[j]
			colEnergy[j] += v * v
			if a := math.Abs(v); a > colScale[j] {
				colScale[j] = a
			}
		}
	}
	// The per-entry budget is Pa/(2·√K·max|y_j|) with K the total kept
	// components; encoding one column at a time, the √K factor is folded
	// into the bound handed to the codec.
	paCol := pa / math.Sqrt(float64(k))
	scoreSecs := make([][]byte, k)
	projSecs := make([][]byte, k)
	if err := parallel.ForCtx(ctx, k, p.Workers, func(j int) {
		if p.HuffmanIndices {
			scoreSecs[j] = encs[j].MarshalHuffman()
		} else {
			scoreSecs[j] = encs[j].Marshal()
		}
		pc := scratch.Floats(shape.M)
		proj.Col(j, pc)
		if p.RawProjection {
			projSecs[j] = float32Bytes(pc)
		} else {
			// encodeProjection reads the column and keeps nothing of it.
			projSecs[j] = encodeProjection(mat.NewDenseData(shape.M, 1, pc), colScale[j:j+1], paCol)
		}
		scratch.PutFloats(pc)
	}); err != nil {
		return nil, err
	}
	projBytes := 0
	for j := 0; j < k; j++ {
		projBytes += len(projSecs[j])
	}
	h := header{
		width:   uint8(p.Width),
		dims:    dims,
		origLen: len(data),
		m:       shape.M,
		n:       shape.N,
		k:       k,
	}
	var scalesSec []byte
	if st.Standardized {
		h.flags |= flagStandardized
		scalesSec = float32Bytes(model.Scales)
	}
	if p.SkipDCT {
		h.flags |= flagNoDCT
	}
	if p.RawProjection {
		h.flags |= flagRawProj
	}
	if p.DCT2D {
		h.flags |= flag2DDCT
	}
	if p.UseWavelet {
		h.flags |= flagWavelet
	}
	var indexSec []byte
	if !p.NoIndex {
		nv := float64(len(data))
		indexSec = retrieval.EncodePayload([]retrieval.Summary{{
			Count:      len(data),
			Min:        minV,
			Max:        maxV,
			Mean:       sumV / nv,
			RMS:        math.Sqrt(sumSq / nv),
			RankEnergy: colEnergy,
		}})
	}
	out, rawTotal, err := encodeContainer(ctx, h, scoreSecs, projSecs, float32Bytes(model.Means), scalesSec, indexSec, p.zlibLevel(), p.Workers)
	if err != nil {
		return nil, err
	}
	tr.Add("zlib", "", t0)

	// CR accounting on the float32 basis. Stage 1&2 output: N·k scores +
	// M·k projection + M means (+ M scales), all as float32. Stage 3
	// replaces the score floats with the quantized stream and the
	// projection floats with the budgeted bit-packed form.
	meanBytes := 4 * shape.M
	if st.Standardized {
		meanBytes += 4 * shape.M
	}
	stage12Bytes := elemBytes*shape.N*k + 4*shape.M*k + meanBytes
	stage3Bytes := projBytes + meanBytes
	for _, enc := range encs {
		stage3Bytes += enc.RawSize()
	}
	st.CompressedBytes = len(out)
	st.CRTotal = stats.CompressionRatio(st.OrigBytes, len(out))
	st.CRStage12 = stats.CompressionRatio(st.OrigBytes, stage12Bytes)
	st.CRStage3 = float64(stage12Bytes) / float64(stage3Bytes)
	st.CRZlib = float64(rawTotal) / float64(len(out))

	// Optional per-stage accuracy diagnostics (Tables III/IV).
	if p.CollectDiagnostics {
		meansF32, _ := float32FromBytes(float32Bytes(model.Means))
		var scalesF32 []float64
		if st.Standardized {
			scalesF32, _ = float32FromBytes(float32Bytes(model.Scales))
		}
		projT := mat.NewDense(k, shape.M)
		for j := 0; j < k; j++ {
			if err := decodeProjSection(projSecs[j], p.RawProjection, projT.Row(j)); err != nil {
				return nil, err
			}
		}
		mode := transformMode(p.SkipDCT, p.DCT2D, p.UseWavelet)

		stage12, err := reconstructRankSpace(scores, projT, meansF32, scalesF32, shape, len(data), mode, p.Workers)
		if err != nil {
			return nil, err
		}
		st.Stage12PSNR = stats.PSNR(data, stage12)

		deqMat := mat.NewDense(shape.N, k)
		for j := 0; j < k; j++ {
			deq, err := encs[j].Decode()
			if err != nil {
				return nil, err
			}
			deqMat.SetCol(j, deq)
		}
		final, err := reconstructRankSpace(deqMat, projT, meansF32, scalesF32, shape, len(data), mode, p.Workers)
		if err != nil {
			return nil, err
		}
		st.FinalPSNR = stats.PSNR(data, final)
	}

	tr.Add("total", "", tStart)
	return &Compressed{Bytes: out, Stats: st}, nil
}

// publishBasis extracts the reusable part of a fitted model: the leading
// min(k+pca.BasisMargin, fitted) components. The columns are shared with the
// model when the widths already match and copied otherwise; models are
// never mutated after fitting, so sharing is safe.
func publishBasis(model *pca.Model, k int, standardized bool) *pca.Basis {
	q := model.Components
	if kpub := k + pca.BasisMargin; kpub < q.Cols() {
		q = model.ProjectionMatrix(kpub)
	}
	return &pca.Basis{Q: q, Standardized: standardized}
}

// workersPer divides a worker budget across k concurrent tasks so nested
// parallel loops stay within the budget instead of multiplying to w².
func workersPer(w, k int) int {
	if w <= 0 {
		w = parallel.DefaultWorkers()
	}
	if k < 1 {
		k = 1
	}
	return (w + k - 1) / k
}
