package core

import (
	"context"
	"testing"

	"dpz/internal/dataset"
	"dpz/internal/stats"
)

func TestSkipDCTRoundTrip(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.SkipDCT = true
	p.TVE = NinesTVE(5)
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	out, dims, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != f.Dims[0] || dims[1] != f.Dims[1] {
		t.Fatalf("dims %v", dims)
	}
	if psnr := stats.PSNR(f.Data, out); psnr < 30 {
		t.Fatalf("no-DCT round trip PSNR %.1f", psnr)
	}
}

func TestMultiStageBeatsSingleStage(t *testing.T) {
	// The paper's central design claim (Section III-B): PCA on DCT
	// coefficients compresses better than PCA on raw block data at equal
	// fidelity targets. Compare total CR at the same TVE.
	f := dataset.CESM("FLDSC", 120, 240, 31)
	with := DPZS()
	with.TVE = NinesTVE(5)
	without := with
	without.SkipDCT = true
	cw, err := Compress(f.Data, f.Dims, with)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Compress(f.Data, f.Dims, without)
	if err != nil {
		t.Fatal(err)
	}
	outW, _, _ := Decompress(context.Background(), cw.Bytes, 0, 0, nil)
	outO, _, _ := Decompress(context.Background(), co.Bytes, 0, 0, nil)
	pW := stats.PSNR(f.Data, outW)
	pO := stats.PSNR(f.Data, outO)
	// DCT must not lose: either better CR at comparable PSNR or better
	// PSNR at comparable CR. Guard the weaker joint condition.
	if cw.Stats.CRTotal < co.Stats.CRTotal && pW < pO-1 {
		t.Fatalf("multi-stage worse on both axes: CR %.2f vs %.2f, PSNR %.1f vs %.1f",
			cw.Stats.CRTotal, co.Stats.CRTotal, pW, pO)
	}
}

func TestCoeffTruncateTradesAccuracyForCR(t *testing.T) {
	f := smoothField()
	base := DPZS()
	base.TVE = NinesTVE(6)
	c0, err := Compress(f.Data, f.Dims, base)
	if err != nil {
		t.Fatal(err)
	}
	trunc := base
	trunc.CoeffTruncate = 0.5
	c1, err := Compress(f.Data, f.Dims, trunc)
	if err != nil {
		t.Fatal(err)
	}
	out0, _, _ := Decompress(context.Background(), c0.Bytes, 0, 0, nil)
	out1, _, _ := Decompress(context.Background(), c1.Bytes, 0, 0, nil)
	p0 := stats.PSNR(f.Data, out0)
	p1 := stats.PSNR(f.Data, out1)
	if p1 > p0+1e-6 {
		t.Fatalf("truncation improved PSNR: %.2f vs %.2f", p1, p0)
	}
	// Truncation must still decode to something reasonable.
	if p1 < 20 {
		t.Fatalf("truncated PSNR %.1f collapsed", p1)
	}
}

func TestCoeffTruncateValidation(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.CoeffTruncate = 1.0
	if _, err := Compress(f.Data, f.Dims, p); err == nil {
		t.Fatal("expected error for CoeffTruncate=1")
	}
	p.CoeffTruncate = -0.1
	if _, err := Compress(f.Data, f.Dims, p); err == nil {
		t.Fatal("expected error for negative CoeffTruncate")
	}
	p.CoeffTruncate = 0.5
	p.SkipDCT = true
	if _, err := Compress(f.Data, f.Dims, p); err == nil {
		t.Fatal("expected error for truncation without DCT")
	}
}

func TestRawProjectionRoundTripAndSize(t *testing.T) {
	f := smoothField()
	packed := DPZS()
	packed.TVE = NinesTVE(5)
	raw := packed
	raw.RawProjection = true
	cp, err := Compress(f.Data, f.Dims, packed)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compress(f.Data, f.Dims, raw)
	if err != nil {
		t.Fatal(err)
	}
	outP, _, err := Decompress(context.Background(), cp.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	outR, _, err := Decompress(context.Background(), cr.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pP := stats.PSNR(f.Data, outP)
	pR := stats.PSNR(f.Data, outR)
	// The packed projection must cost little accuracy relative to float32
	// and must shrink the stream.
	if pP < pR-3 {
		t.Fatalf("packed projection lost too much accuracy: %.2f vs %.2f dB", pP, pR)
	}
	if cp.Stats.CompressedBytes >= cr.Stats.CompressedBytes {
		t.Fatalf("packed projection did not shrink the stream: %d vs %d bytes",
			cp.Stats.CompressedBytes, cr.Stats.CompressedBytes)
	}
}

func TestLargerMHigherStage12CR(t *testing.T) {
	// The paper's empirical block-shape observation: under M<N, larger M
	// yields higher Stage 1&2 compression at the same TVE (more
	// collinear features to collapse).
	f := dataset.CESM("FLDSC", 128, 256, 33)
	var prev float64
	for i, maxM := range []int{16, 64, 128} {
		p := DPZS()
		p.TVE = NinesTVE(4)
		p.MaxBlocks = maxM
		c, err := Compress(f.Data, f.Dims, p)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && c.Stats.CRStage12 < prev*0.5 {
			t.Fatalf("M=%d stage1&2 CR %.2f collapsed from %.2f", maxM, c.Stats.CRStage12, prev)
		}
		prev = c.Stats.CRStage12
	}
}

func TestDCT2DRoundTripMode(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.TVE = NinesTVE(5)
	p.DCT2D = true
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	out, dims, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != f.Dims[0] || dims[1] != f.Dims[1] {
		t.Fatalf("dims %v", dims)
	}
	if psnr := stats.PSNR(f.Data, out); psnr < 35 {
		t.Fatalf("2-D DCT mode PSNR %.1f", psnr)
	}
}

func TestDCT2DConflictsWithSkip(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.DCT2D = true
	p.SkipDCT = true
	if _, err := Compress(f.Data, f.Dims, p); err == nil {
		t.Fatal("expected DCT2D/SkipDCT conflict error")
	}
}

func TestWaveletRoundTripMode(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.TVE = NinesTVE(5)
	p.UseWavelet = true
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := stats.PSNR(f.Data, out); psnr < 30 {
		t.Fatalf("wavelet mode PSNR %.1f", psnr)
	}
	if c.Stats.CRTotal < 2 {
		t.Fatalf("wavelet mode CR %.2f", c.Stats.CRTotal)
	}
}

func TestWaveletConflicts(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.UseWavelet = true
	p.DCT2D = true
	if _, err := Compress(f.Data, f.Dims, p); err == nil {
		t.Fatal("expected wavelet/DCT2D conflict error")
	}
}

func TestHuffmanIndicesRoundTrip(t *testing.T) {
	f := smoothField()
	p := DPZL()
	p.TVE = NinesTVE(5)
	p.HuffmanIndices = true
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Identical reconstruction to the plain index layout.
	plain := p
	plain.HuffmanIndices = false
	cp, err := Compress(f.Data, f.Dims, plain)
	if err != nil {
		t.Fatal(err)
	}
	outP, _, err := Decompress(context.Background(), cp.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != outP[i] {
			t.Fatalf("huffman layout changes reconstruction at %d", i)
		}
	}
}
