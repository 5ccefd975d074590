// Package dpz is a lossy compressor for floating-point scientific data
// based on multi-stage information retrieval, reproducing "DPZ: Improving
// Lossy Compression Ratio with Information Retrieval on Scientific Data"
// (IEEE CLUSTER 2021).
//
// The pipeline decomposes an arbitrary-dimensional array into an M×N block
// matrix (Stage 1), applies an orthonormal DCT-II per block and projects
// the coefficients onto their k leading principal components selected by
// knee-point detection or a total-variance-explained threshold (Stage 2),
// quantizes the component scores with a symmetric uniform quantizer
// (Stage 3), and finishes with a zlib lossless pass. A sampling strategy
// estimates k and the achievable compression ratio before compressing.
//
// Basic usage:
//
//	res, err := dpz.Compress(values, []int{1800, 3600}, dpz.StrictOptions())
//	...
//	recon, dims, err := dpz.Decompress(res.Data)
//
// The companion packages under internal/ implement every substrate from
// scratch (dense linear algebra, symmetric eigensolvers, FFT/DCT, Huffman,
// and SZ-like and ZFP-like baseline compressors used by the benchmark
// harness).
package dpz

// The repo's determinism, pooling and cancellation invariants are
// machine-enforced; `go generate` (or CI's lint job) runs the checks.
//go:generate go run ./cmd/dpzlint -werror ./...

import (
	"context"
	"fmt"

	"dpz/internal/basiscache"
	"dpz/internal/blockio"
	"dpz/internal/core"
	"dpz/internal/knee"
	"dpz/internal/metrics"
	"dpz/internal/pca"
	"dpz/internal/quant"
	"dpz/internal/sampling"
	"dpz/internal/stats"
	"dpz/internal/transform"
)

// IndexWidth selects the Stage 3 bin-index width.
type IndexWidth int

const (
	// Index1Byte uses 255 bins + escape (the DPZ-l scheme).
	Index1Byte IndexWidth = 1
	// Index2Byte uses 65535 bins + escape (the DPZ-s scheme).
	Index2Byte IndexWidth = 2
)

// Selection names the k-PCA selection method (Algorithm 1).
type Selection int

const (
	// KneePoint detects the maximum-curvature point of the TVE curve:
	// aggressive, parameter-free (Method 1).
	KneePoint Selection = iota
	// TVEThreshold keeps the smallest k reaching Options.TVE (Method 2).
	TVEThreshold
)

// Fitting selects the knee-detection curve fit.
type Fitting int

const (
	// FitLinear is the 1-D interpolation fit (higher CR).
	FitLinear Fitting = iota
	// FitPoly is the polynomial fit (higher accuracy, lower CR).
	FitPoly
)

// Standardize controls pre-PCA feature standardization.
type Standardize int

const (
	// StandardizeAuto standardizes only low-linearity data (VIF below 5).
	StandardizeAuto Standardize = iota
	// StandardizeOff never standardizes.
	StandardizeOff
	// StandardizeOn always standardizes.
	StandardizeOn
)

// Options configures a compression. Use LooseOptions, StrictOptions or
// DefaultOptions as starting points.
type Options struct {
	// P is the Stage 3 quantization error bound relative to the original
	// data's value range (1e-3 loose, 1e-4 strict — the SZ convention).
	P float64
	// IndexBytes selects 1- or 2-byte bin indexing.
	IndexBytes IndexWidth
	// Selection picks knee-point detection or the TVE threshold.
	Selection Selection
	// TVE is the variance target for TVEThreshold, e.g. dpz.Nines(5).
	TVE float64
	// Fit chooses the knee-detection curve fit.
	Fit Fitting
	// UseSampling enables the Algorithm 2 sampling strategy.
	UseSampling bool
	// SamplingSubsets is S, the number of row subsets (default 10).
	SamplingSubsets int
	// SamplingPick is T, the subsets analyzed (default 3).
	SamplingPick int
	// SamplingRate is SR, the VIF row-sampling rate (default 0.01).
	SamplingRate float64
	// Standardize controls pre-PCA standardization.
	Standardize Standardize
	// MaxBlocks caps the block count M (0 = library default of 2048).
	MaxBlocks int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed makes compression reproducible (0 = 1).
	Seed int64
	// CollectDiagnostics additionally measures per-stage PSNR.
	CollectDiagnostics bool
	// Use2DDCT applies the separable 2-D DCT across the whole block
	// matrix instead of the per-block 1-D transform.
	Use2DDCT bool
	// CoeffTruncate zeroes the trailing fraction of each block's DCT
	// coefficients before PCA (0 disables; must be in [0,1)). Trades
	// accuracy for compression ratio.
	CoeffTruncate float64
	// DoublePrecision accounts sizes and stores escape literals at 8
	// bytes/value (for float64 source data).
	DoublePrecision bool
	// ZLevel sets the zlib add-on compression level, 1 (fastest) to 9
	// (best). 0 keeps zlib's default, matching previous releases.
	ZLevel int
	// BasisReuse lets compressions of similar tiles reuse (or warm-start
	// from) an earlier tile's PCA basis instead of refitting from
	// scratch. A reused basis must first pass a quality guard proving it
	// still meets the TVE target on the new tile's own data, so the
	// accuracy contract is unchanged. Tiled and batch compressions get a
	// per-call cache automatically; single-shot Compress calls
	// additionally need a BasisCache to draw candidates from. Reuse only
	// engages for TVE-threshold selection or the sampling strategy.
	BasisReuse bool
	// BasisCache, when set together with BasisReuse, is the cache
	// candidates are drawn from and fitted bases published to. Sharing
	// one cache across calls (as dpzd does) carries bases across whole
	// requests; leaving it nil scopes reuse to a single tiled or batch
	// call.
	BasisCache *BasisCache
	// NoIndex disables the trailing retrieval-index section, producing a
	// format-v2 stream byte-identical to earlier releases. The default
	// (false) emits format v3 with per-tile summaries that power
	// compressed-domain range/similarity queries and `dpzstat` index
	// reporting; the index is a raw trailing section v2 readers skip.
	NoIndex bool
}

// LooseOptions returns the paper's DPZ-l scheme (P=1e-3, 1-byte indexing).
func LooseOptions() Options {
	o := DefaultOptions()
	o.P = 1e-3
	o.IndexBytes = Index1Byte
	return o
}

// StrictOptions returns the paper's DPZ-s scheme (P=1e-4, 2-byte indexing).
func StrictOptions() Options {
	o := DefaultOptions()
	o.P = 1e-4
	o.IndexBytes = Index2Byte
	return o
}

// DefaultOptions returns DPZ-l quantization with TVE selection at
// "five-nine".
func DefaultOptions() Options {
	return Options{
		P:          1e-3,
		IndexBytes: Index1Byte,
		Selection:  TVEThreshold,
		TVE:        Nines(5),
		Fit:        FitLinear,
		Seed:       1,
	}
}

// Nines returns a TVE threshold with the given count of nines: Nines(3) =
// 0.999 ("three-nine") through Nines(8) = 0.99999999 ("eight-nine").
func Nines(n int) float64 { return core.NinesTVE(n) }

// toCore converts public options to the internal parameter set.
func (o Options) toCore() core.Params {
	p := core.Params{
		P:                  o.P,
		TVE:                o.TVE,
		UseSampling:        o.UseSampling,
		MaxBlocks:          o.MaxBlocks,
		Workers:            o.Workers,
		Seed:               o.Seed,
		CollectDiagnostics: o.CollectDiagnostics,
		DCT2D:              o.Use2DDCT,
		CoeffTruncate:      o.CoeffTruncate,
		ZLevel:             o.ZLevel,
		NoIndex:            o.NoIndex,
		Sampling: sampling.Params{
			S:  o.SamplingSubsets,
			T:  o.SamplingPick,
			SR: o.SamplingRate,
		},
	}
	switch o.IndexBytes {
	case Index2Byte:
		p.Width = quant.Width2
	default:
		p.Width = quant.Width1
	}
	if o.Selection == KneePoint {
		p.Selection = core.KneePoint
	} else {
		p.Selection = core.TVEThreshold
	}
	if o.Fit == FitPoly {
		p.Fit = knee.Poly
	} else {
		p.Fit = knee.Linear
	}
	switch o.Standardize {
	case StandardizeOn:
		p.Standardize = core.StandardizeOn
	case StandardizeOff:
		p.Standardize = core.StandardizeOff
	default:
		p.Standardize = core.StandardizeAuto
	}
	if o.DoublePrecision {
		p.ElemBytes = 8
	}
	return p
}

// Stats reports what one compression did: sizes, block shape, selected k,
// per-stage compression ratios, optional per-stage PSNR, and the stage
// trace.
type Stats struct {
	OrigBytes       int
	CompressedBytes int
	Blocks          int // M
	BlockLen        int // N
	K               int
	TVEAchieved     float64
	Standardized    bool
	OutOfRange      int

	CRTotal   float64
	CRStage12 float64
	CRStage3  float64
	CRZlib    float64

	Stage12PSNR float64
	FinalPSNR   float64

	// Trace is where the compression's time went: decompose, dct, pca,
	// quant and zlib at the top level, total around the whole call, and
	// Stage 2's sampling, vif, guard, gram, eig and project under pca
	// (each only when it ran).
	Trace Trace

	// BasisDecision reports which path the basis-reuse layer took:
	// "cold" (no usable candidate), "accept" (candidate adopted after
	// the quality guard), or "refine" (candidate warm-started the
	// eigensolve). Empty when basis reuse was off for this compression.
	BasisDecision string

	// Sampling holds the Algorithm 2 report when UseSampling was set.
	Sampling *Estimate
}

// Result is a finished compression.
type Result struct {
	// Data is the self-contained DPZ stream.
	Data []byte
	// Stats describes the compression.
	Stats Stats
}

// Estimate is the sampling strategy's pre-compression report.
type Estimate struct {
	// Ke is the estimated number of principal components.
	Ke int
	// MeanVIF is the mean variance inflation factor of the sampled block
	// features — the compressibility indicator (higher is better for DPZ).
	MeanVIF float64
	// LowLinearity is true when MeanVIF is below the cutoff of 5: DPZ
	// will standardize and compressibility is expected to be poor.
	LowLinearity bool
	// CRLow and CRHigh bound the predicted total compression ratio.
	CRLow, CRHigh float64
}

func fromCoreStats(s core.Stats) Stats {
	out := Stats{
		OrigBytes:       s.OrigBytes,
		CompressedBytes: s.CompressedBytes,
		Blocks:          s.M,
		BlockLen:        s.N,
		K:               s.K,
		TVEAchieved:     s.TVEAchieved,
		Standardized:    s.Standardized,
		OutOfRange:      s.OutOfRange,
		CRTotal:         s.CRTotal,
		CRStage12:       s.CRStage12,
		CRStage3:        s.CRStage3,
		CRZlib:          s.CRZlib,
		Stage12PSNR:     s.Stage12PSNR,
		FinalPSNR:       s.FinalPSNR,
		Trace:           s.Trace,
	}
	if s.BasisDecision != pca.ReuseOff {
		out.BasisDecision = s.BasisDecision.String()
	}
	if s.Sampling != nil {
		out.Sampling = &Estimate{
			Ke:           s.Sampling.Ke,
			MeanVIF:      s.Sampling.MeanVIF,
			LowLinearity: s.Sampling.LowLinear,
			CRLow:        s.Sampling.CRpLow,
			CRHigh:       s.Sampling.CRpHigh,
		}
	}
	return out
}

// Compress compresses single-precision values with the given row-major
// dimensions (slowest dimension first; the product must equal len(data)).
func Compress(data []float32, dims []int, o Options) (*Result, error) {
	return CompressFloat64(stats.Float32To64(data), dims, o)
}

// CompressContext is Compress with cooperative cancellation: a cancelled
// or timed-out ctx stops the pipeline at the next stage boundary or
// parallel-loop iteration and returns ctx.Err(). Long-lived callers (the
// dpzd daemon, Ctrl-C-able CLIs) use this to stop burning CPU on
// abandoned requests.
func CompressContext(ctx context.Context, data []float32, dims []int, o Options) (*Result, error) {
	return CompressFloat64Context(ctx, stats.Float32To64(data), dims, o)
}

// CompressFloat64 is Compress for double-precision input. Note the error
// bound P and the CR accounting both treat values as 32-bit, matching the
// paper's single-precision datasets.
func CompressFloat64(data []float64, dims []int, o Options) (*Result, error) {
	return CompressFloat64Context(context.Background(), data, dims, o)
}

// CompressFloat64Context is CompressFloat64 with cooperative cancellation.
func CompressFloat64Context(ctx context.Context, data []float64, dims []int, o Options) (*Result, error) {
	if basisEligible(o) && o.BasisCache != nil {
		key := basiscache.KeyFor(dimsKey(dims), basisFingerprint(o), data)
		return compressWithHandle(ctx, data, dims, o, o.BasisCache.c.Acquire(key))
	}
	c, err := core.CompressContext(ctx, data, dims, o.toCore())
	if err != nil {
		return nil, err
	}
	return &Result{Data: c.Bytes, Stats: fromCoreStats(c.Stats)}, nil
}

// Decompress reconstructs single-precision values and the original
// dimensions from a DPZ stream.
func Decompress(buf []byte) ([]float32, []int, error) {
	d, dims, err := DecompressFloat64(buf)
	if err != nil {
		return nil, nil, err
	}
	return stats.Float64To32(d), dims, nil
}

// DecompressContext is Decompress with cooperative cancellation and an
// explicit worker bound (0 = GOMAXPROCS) for the parallel section decode.
func DecompressContext(ctx context.Context, buf []byte, workers int) ([]float32, []int, error) {
	d, dims, err := DecompressFloat64Context(ctx, buf, workers)
	if err != nil {
		return nil, nil, err
	}
	return stats.Float64To32(d), dims, nil
}

// DecompressFloat64 reconstructs double-precision values from a DPZ
// stream.
func DecompressFloat64(buf []byte) ([]float64, []int, error) {
	return core.Decompress(context.Background(), buf, 0, 0, nil)
}

// DecompressFloat64Context is DecompressFloat64 with cooperative
// cancellation and an explicit worker bound (0 = GOMAXPROCS).
func DecompressFloat64Context(ctx context.Context, buf []byte, workers int) ([]float64, []int, error) {
	return core.Decompress(ctx, buf, workers, 0, nil)
}

// DecompressRank reconstructs from only the `rank` leading principal
// components of the stream's stored k (0 = all): progressive
// decompression — a cheap low-fidelity preview from a few components,
// full fidelity from all.
func DecompressRank(buf []byte, rank int) ([]float32, []int, error) {
	d, dims, err := DecompressRankFloat64(buf, rank)
	if err != nil {
		return nil, nil, err
	}
	return stats.Float64To32(d), dims, nil
}

// DecompressRankFloat64 is DecompressRank with double-precision output.
func DecompressRankFloat64(buf []byte, rank int) ([]float64, []int, error) {
	return core.Decompress(context.Background(), buf, 0, rank, nil)
}

// StreamInfo is the cheap header/section-table metadata of a DPZ stream;
// see Stat. Its JSON form is the shared metadata rendering used by both
// `dpzstat -json` and the dpzd `/v1/stat` endpoint.
type StreamInfo = core.StreamInfo

// SectionInfo describes one container section inside a StreamInfo.
type SectionInfo = core.SectionInfo

// Trace is a stage breakdown: named, timed spans in the order they
// ended, each naming the span it is part of. ByName sums them by name.
type Trace = metrics.Trace

// Stat parses a stream's header and section table into a StreamInfo
// without inflating any payload or reconstructing data — metadata
// inspection at I/O cost only. Structural damage is an error; use Verify
// for a checksum scan.
func Stat(buf []byte) (*StreamInfo, error) { return core.Inspect(buf) }

// CorruptionError reports checksum or structural damage in a DPZ stream;
// Verify returns it to name the damaged sections, and DecompressBestEffort
// returns it alongside partial data to describe what was lost and the
// rank actually recovered. Match it with errors.As.
type CorruptionError = core.CorruptionError

// Verify checks a stream's structure and checksums without reconstructing
// any data — an integrity scan for archived streams. It inflates every
// data section, so a section whose declared length no longer matches its
// payload is caught; on large streams that costs a few percent of a full
// decode. Damaged v2/v3 streams yield a *CorruptionError naming the
// affected sections, the ones DecompressBestEffort names; v1 streams (no
// checksums) are walked and inflated and any failure is returned as is.
func Verify(buf []byte) error { return core.Verify(buf) }

// DecompressBestEffort decompresses buf, degrading gracefully when parts
// of a v2 stream are damaged: if a trailing score or projection region
// fails its checksum, it reconstructs from the highest intact rank (the
// progressive-decode property of rank-ordered PCA sections) and returns
// the partial data together with a *CorruptionError describing what was
// lost. A fully intact stream returns a nil error.
func DecompressBestEffort(buf []byte) ([]float32, []int, error) {
	d, dims, err := DecompressBestEffortFloat64(buf)
	if d == nil {
		return nil, dims, err
	}
	return stats.Float64To32(d), dims, err
}

// DecompressBestEffortFloat64 is DecompressBestEffort with
// double-precision output.
func DecompressBestEffortFloat64(buf []byte) ([]float64, []int, error) {
	return core.DecompressBestEffort(buf, 0)
}

// TuneForPSNR searches the TVE dial ("three-nine" … "eight-nine") for the
// loosest setting whose reconstruction meets the target PSNR, returning
// tuned options and the achieved PSNR. The search runs up to six trial
// compressions of the given data; pass a subsampled field for very large
// inputs.
func TuneForPSNR(data []float32, dims []int, targetPSNR float64, base Options) (Options, float64, error) {
	return TuneForPSNRFloat64(stats.Float32To64(data), dims, targetPSNR, base)
}

// TuneForPSNRFloat64 is TuneForPSNR for float64 input.
func TuneForPSNRFloat64(data []float64, dims []int, targetPSNR float64, base Options) (Options, float64, error) {
	p, psnr, err := core.TuneForPSNR(data, dims, targetPSNR, base.toCore())
	if err != nil {
		return base, psnr, err
	}
	out := base
	out.Selection = TVEThreshold
	out.TVE = p.TVE
	return out, psnr, nil
}

// EstimateCompression runs the sampling strategy alone: it decomposes and
// DCT-transforms the data, then estimates k, the VIF compressibility
// indicator and the achievable compression-ratio range without running the
// full Stage 2/3 pipeline.
func EstimateCompression(data []float32, dims []int, o Options) (*Estimate, error) {
	return EstimateCompressionFloat64(stats.Float32To64(data), dims, o)
}

// EstimateCompressionFloat64 is EstimateCompression for float64 input.
func EstimateCompressionFloat64(data []float64, dims []int, o Options) (*Estimate, error) {
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("dpz: non-positive dimension in %v", dims)
		}
		total *= d
	}
	if total != len(data) {
		return nil, fmt.Errorf("dpz: dims %v describe %d values, data has %d", dims, total, len(data))
	}
	shape, err := blockio.ShapeFor(dims, o.MaxBlocks)
	if err != nil {
		return nil, err
	}
	blocks, err := blockio.Decompose(data, shape)
	if err != nil {
		return nil, err
	}
	transform.ForwardRows(blocks.Data(), shape.M, shape.N, o.Workers)
	sp := sampling.Params{
		S:    o.SamplingSubsets,
		T:    o.SamplingPick,
		SR:   o.SamplingRate,
		TVE:  o.TVE,
		Seed: o.Seed,
	}
	if o.Selection == KneePoint {
		fit := knee.Linear
		if o.Fit == FitPoly {
			fit = knee.Poly
		}
		sp.SelectK = func(curve []float64) int { return knee.Detect(curve, fit) }
	}
	rep, err := sampling.Run(blocks.T(), sp)
	if err != nil {
		return nil, err
	}
	return &Estimate{
		Ke:           rep.Ke,
		MeanVIF:      rep.MeanVIF,
		LowLinearity: rep.LowLinear,
		CRLow:        rep.CRpLow,
		CRHigh:       rep.CRpHigh,
	}, nil
}
