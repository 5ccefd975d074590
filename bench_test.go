// Benchmarks regenerating the paper's tables and figures (one bench per
// experiment; run `go test -bench=. -benchmem`) plus micro-benchmarks of
// the pipeline stages. The dpzbench command runs the same experiments with
// readable output; these benches additionally time them under testing.B.
package dpz_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"dpz"
	"dpz/internal/core"
	"dpz/internal/dataset"
	"dpz/internal/dctz"
	"dpz/internal/experiments"
	"dpz/internal/mgard"
	"dpz/internal/sz"
	"dpz/internal/transform"
	"dpz/internal/tthresh"
	"dpz/internal/zfp"
)

// benchScale keeps the full-experiment benches inside a laptop budget.
const benchScale = 0.04

func runExperiment(b *testing.B, fn func(experiments.Config) error) {
	b.Helper()
	cfg := experiments.Config{Scale: benchScale, Out: io.Discard}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fn(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One bench per paper table/figure -----------------------------------

func BenchmarkTable1Inventory(b *testing.B)     { runExperiment(b, experiments.Table1) }
func BenchmarkFig1DCTDistribution(b *testing.B) { runExperiment(b, experiments.Fig1) }
func BenchmarkFig2PCAComponents(b *testing.B)   { runExperiment(b, experiments.Fig2) }
func BenchmarkFig3InformationPreservation(b *testing.B) {
	runExperiment(b, experiments.Fig3)
}
func BenchmarkFig4TransformCombos(b *testing.B) { runExperiment(b, experiments.Fig4) }
func BenchmarkFig6RateDistortion(b *testing.B)  { runExperiment(b, experiments.Fig6) }
func BenchmarkTable2KneePoint(b *testing.B)     { runExperiment(b, experiments.Table2) }
func BenchmarkTable3Breakdown(b *testing.B)     { runExperiment(b, experiments.Table3) }
func BenchmarkTable4AccuracyLoss(b *testing.B)  { runExperiment(b, experiments.Table4) }
func BenchmarkFig7Visualization(b *testing.B)   { runExperiment(b, experiments.Fig7) }
func BenchmarkFig8Throughput(b *testing.B)      { runExperiment(b, experiments.Fig8) }
func BenchmarkFig9StageBreakdown(b *testing.B)  { runExperiment(b, experiments.Fig9) }
func BenchmarkFig10VIF(b *testing.B)            { runExperiment(b, experiments.Fig10) }
func BenchmarkSamplingEstimation(b *testing.B)  { runExperiment(b, experiments.SamplingEval) }
func BenchmarkAblation(b *testing.B)            { runExperiment(b, experiments.Ablation) }
func BenchmarkScaling(b *testing.B)             { runExperiment(b, experiments.Scaling) }

// --- Compressor micro-benchmarks ----------------------------------------

func benchField(b *testing.B) *dataset.Field {
	b.Helper()
	return dataset.CESM("FLDSC", 180, 360, 1)
}

// scalingField is the CLDHGH-scale synthetic used by the worker-scaling
// benchmarks (half the native 1800×3600 CESM grid per side).
func scalingField(b *testing.B) *dataset.Field {
	b.Helper()
	return dataset.CESM("CLDHGH", 900, 1800, 2001)
}

// benchWorkers are the worker counts the scaling benches sweep.
var benchWorkers = []int{1, 2, 4, 8}

// BenchmarkCompress measures end-to-end compression throughput of the
// pipelined hot path at several worker counts.
func BenchmarkCompress(b *testing.B) {
	f := scalingField(b)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := dpz.LooseOptions()
			o.Workers = w
			b.SetBytes(int64(4 * f.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dpz.CompressFloat64(f.Data, f.Dims, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompress measures parallel section decode + reconstruction.
func BenchmarkDecompress(b *testing.B) {
	f := scalingField(b)
	o := dpz.LooseOptions()
	res, err := dpz.CompressFloat64(f.Data, f.Dims, o)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(4 * f.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Decompress(context.Background(), res.Data, w, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTiled measures the three-stage tile pipeline end to end
// (read, compress W tiles concurrently, ordered archive writeback).
func BenchmarkTiled(b *testing.B) {
	f := scalingField(b)
	raw := make([]byte, 4*f.Len())
	for i, v := range f.Data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(v)))
	}
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := dpz.LooseOptions()
			o.Workers = w
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dpz.CompressTiled(bytes.NewReader(raw), f.Dims, f.Dims[0]/8, o, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompressDPZLoose(b *testing.B) {
	f := benchField(b)
	o := dpz.LooseOptions()
	o.TVE = dpz.Nines(5)
	b.SetBytes(int64(4 * f.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dpz.CompressFloat64(f.Data, f.Dims, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressDPZStrict(b *testing.B) {
	f := benchField(b)
	o := dpz.StrictOptions()
	o.TVE = dpz.Nines(5)
	b.SetBytes(int64(4 * f.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := dpz.CompressFloat64(f.Data, f.Dims, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressDPZSampling(b *testing.B) {
	f := benchField(b)
	o := dpz.StrictOptions()
	o.TVE = dpz.Nines(5)
	o.UseSampling = true
	b.SetBytes(int64(4 * f.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := dpz.CompressFloat64(f.Data, f.Dims, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressDPZ(b *testing.B) {
	f := benchField(b)
	o := dpz.StrictOptions()
	o.TVE = dpz.Nines(5)
	res, err := dpz.CompressFloat64(f.Data, f.Dims, o)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dpz.DecompressFloat64(res.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSZ(b *testing.B) {
	f := benchField(b)
	b.SetBytes(int64(4 * f.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := sz.Compress(f.Data, f.Dims, sz.Params{ErrorBound: 1e-3, Relative: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressDCTZ(b *testing.B) {
	f := benchField(b)
	b.SetBytes(int64(4 * f.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := dctz.Compress(f.Data, f.Dims, dctz.Params{ErrorBound: 1e-3, Relative: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressMGARD(b *testing.B) {
	f := benchField(b)
	b.SetBytes(int64(4 * f.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := mgard.Compress(f.Data, f.Dims, mgard.Params{ErrorBound: 1e-3, Relative: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressZFP(b *testing.B) {
	f := benchField(b)
	b.SetBytes(int64(4 * f.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := zfp.Compress(f.Data, f.Dims, zfp.Params{Mode: zfp.FixedPrecision, Precision: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressTTHRESH(b *testing.B) {
	f := benchField(b)
	b.SetBytes(int64(4 * f.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := tthresh.Compress(f.Data, f.Dims, tthresh.Params{RMSE: 1e-3, Relative: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCTForwardRows(b *testing.B) {
	const rows, n = 256, 512
	data := make([]float64, rows*n)
	for i := range data {
		data[i] = float64(i % 97)
	}
	b.SetBytes(int64(8 * len(data)))
	for i := 0; i < b.N; i++ {
		transform.ForwardRows(data, rows, n, 0)
	}
}

func BenchmarkKneePointCompression(b *testing.B) {
	f := benchField(b)
	p := core.DPZL()
	p.Selection = core.KneePoint
	b.SetBytes(int64(4 * f.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := core.Compress(f.Data, f.Dims, p); err != nil {
			b.Fatal(err)
		}
	}
}
