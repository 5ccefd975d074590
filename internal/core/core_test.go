package core

import (
	"context"
	"math"
	"testing"

	"dpz/internal/dataset"
	"dpz/internal/quant"
	"dpz/internal/stats"
)

// smoothField returns a small, very compressible 2-D field.
func smoothField() *dataset.Field {
	return dataset.CESM("FLDSC", 90, 180, 11)
}

func roundTrip(t *testing.T, f *dataset.Field, p Params) (*Compressed, []float64) {
	t.Helper()
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	out, dims, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if len(dims) != len(f.Dims) {
		t.Fatalf("dims = %v, want %v", dims, f.Dims)
	}
	for i := range dims {
		if dims[i] != f.Dims[i] {
			t.Fatalf("dims = %v, want %v", dims, f.Dims)
		}
	}
	if len(out) != len(f.Data) {
		t.Fatalf("decoded %d values, want %d", len(out), len(f.Data))
	}
	return c, out
}

func TestRoundTripSmooth2D(t *testing.T) {
	f := smoothField()
	c, out := roundTrip(t, f, DPZS())
	psnr := stats.PSNR(f.Data, out)
	if psnr < 40 {
		t.Fatalf("smooth field PSNR = %.1f dB, want > 40", psnr)
	}
	if c.Stats.CRTotal < 2 {
		t.Fatalf("smooth field CR = %.2f, want > 2", c.Stats.CRTotal)
	}
}

func TestRoundTrip3D(t *testing.T) {
	f := dataset.Isotropic(24, 5)
	p := DPZS()
	p.TVE = NinesTVE(5)
	c, out := roundTrip(t, f, p)
	psnr := stats.PSNR(f.Data, out)
	if psnr < 25 {
		t.Fatalf("3-D PSNR = %.1f dB", psnr)
	}
	if c.Stats.M >= c.Stats.N {
		t.Fatalf("block shape %dx%d violates M<N", c.Stats.M, c.Stats.N)
	}
}

func TestRoundTrip1D(t *testing.T) {
	f := dataset.HACCX(1<<14, 6)
	p := DPZS()
	p.TVE = NinesTVE(6)
	_, out := roundTrip(t, f, p)
	if psnr := stats.PSNR(f.Data, out); psnr < 20 {
		t.Fatalf("1-D PSNR = %.1f dB", psnr)
	}
}

func TestHigherTVEGivesHigherFidelityLowerCR(t *testing.T) {
	f := smoothField()
	var prevPSNR, prevCR float64
	prevPSNR = -1
	prevCR = math.Inf(1)
	for _, nines := range []int{3, 5, 7} {
		p := DPZS()
		p.TVE = NinesTVE(nines)
		c, out := roundTrip(t, f, p)
		psnr := stats.PSNR(f.Data, out)
		if psnr+1e-9 < prevPSNR {
			t.Fatalf("PSNR fell from %.2f to %.2f when tightening TVE to %d nines", prevPSNR, psnr, nines)
		}
		if c.Stats.CRStage12 > prevCR+1e-9 {
			t.Fatalf("Stage 1&2 CR rose from %.2f to %.2f when tightening TVE", prevCR, c.Stats.CRStage12)
		}
		prevPSNR, prevCR = psnr, c.Stats.CRStage12
	}
}

func TestKneePointSelection(t *testing.T) {
	f := smoothField()
	p := DPZL()
	p.Selection = KneePoint
	c, out := roundTrip(t, f, p)
	if c.Stats.K < 1 || c.Stats.K > c.Stats.M {
		t.Fatalf("knee selected k=%d outside [1,%d]", c.Stats.K, c.Stats.M)
	}
	// Knee point is the aggressive option: k must be well below M on
	// smooth data.
	if c.Stats.K > c.Stats.M/2 {
		t.Fatalf("knee kept %d of %d components on smooth data", c.Stats.K, c.Stats.M)
	}
	if psnr := stats.PSNR(f.Data, out); psnr < 15 {
		t.Fatalf("knee-point PSNR = %.1f dB", psnr)
	}
}

func TestSamplingPath(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.UseSampling = true
	p.TVE = NinesTVE(4)
	c, out := roundTrip(t, f, p)
	if c.Stats.Sampling == nil {
		t.Fatal("sampling report missing")
	}
	if c.Stats.K != c.Stats.Sampling.Ke {
		t.Fatalf("k=%d != Ke=%d", c.Stats.K, c.Stats.Sampling.Ke)
	}
	if psnr := stats.PSNR(f.Data, out); psnr < 30 {
		t.Fatalf("sampled-path PSNR = %.1f dB", psnr)
	}
}

func TestDiagnosticsStagePSNRs(t *testing.T) {
	f := smoothField()
	p := DPZL()
	p.TVE = NinesTVE(7)
	p.CollectDiagnostics = true
	c, out := roundTrip(t, f, p)
	if c.Stats.Stage12PSNR == 0 || c.Stats.FinalPSNR == 0 {
		t.Fatal("diagnostics not collected")
	}
	// Quantization can only lose accuracy relative to exact scores.
	if c.Stats.FinalPSNR > c.Stats.Stage12PSNR+1e-6 {
		t.Fatalf("final PSNR %.2f exceeds stage-1&2 PSNR %.2f", c.Stats.FinalPSNR, c.Stats.Stage12PSNR)
	}
	// FinalPSNR must match the actual decompressed output.
	measured := stats.PSNR(f.Data, out)
	if math.Abs(measured-c.Stats.FinalPSNR) > 0.01 {
		t.Fatalf("reported final PSNR %.3f != measured %.3f", c.Stats.FinalPSNR, measured)
	}
}

func TestCRAccountingConsistent(t *testing.T) {
	f := smoothField()
	c, _ := roundTrip(t, f, DPZL())
	s := c.Stats
	if s.CRTotal <= 0 || s.CRStage12 <= 0 || s.CRStage3 <= 0 || s.CRZlib <= 0 {
		t.Fatalf("non-positive CRs: %+v", s)
	}
	want := float64(s.OrigBytes) / float64(s.CompressedBytes)
	if math.Abs(s.CRTotal-want) > 1e-9 {
		t.Fatalf("CRTotal %.4f != bytes ratio %.4f", s.CRTotal, want)
	}
	// Product of stage factors approximates the total (header overhead
	// makes it inexact but close).
	prod := s.CRStage12 * s.CRStage3 * s.CRZlib
	if prod < s.CRTotal/2 || prod > s.CRTotal*2 {
		t.Fatalf("stage product %.2f far from total %.2f", prod, s.CRTotal)
	}
}

func TestStandardizeModes(t *testing.T) {
	f := dataset.HACCVX(1<<12, 9)
	for _, mode := range []StandardizeMode{StandardizeOff, StandardizeOn, StandardizeAuto} {
		p := DPZS()
		p.TVE = NinesTVE(3)
		p.Standardize = mode
		c, _ := roundTrip(t, f, p)
		switch mode {
		case StandardizeOn:
			if !c.Stats.Standardized {
				t.Fatal("StandardizeOn ignored")
			}
		case StandardizeOff:
			if c.Stats.Standardized {
				t.Fatal("StandardizeOff ignored")
			}
		}
	}
}

func TestDPZLvsDPZSQuantization(t *testing.T) {
	f := smoothField()
	pl := DPZL()
	pl.TVE = NinesTVE(6)
	ps := DPZS()
	ps.TVE = NinesTVE(6)
	cl, outL := roundTrip(t, f, pl)
	cs, outS := roundTrip(t, f, ps)
	// Same k (same TVE), but the strict scheme must reconstruct at least
	// as accurately.
	if cl.Stats.K != cs.Stats.K {
		t.Logf("k differs: l=%d s=%d (acceptable, same selection rule)", cl.Stats.K, cs.Stats.K)
	}
	pl64 := stats.PSNR(f.Data, outL)
	ps64 := stats.PSNR(f.Data, outS)
	if ps64+1 < pl64 {
		t.Fatalf("DPZ-s PSNR %.2f well below DPZ-l %.2f", ps64, pl64)
	}
}

func TestCompressValidation(t *testing.T) {
	f := smoothField()
	if _, err := Compress(f.Data, []int{1, 2}, DPZL()); err == nil {
		t.Fatal("expected dims/data mismatch error")
	}
	if _, err := Compress(f.Data, []int{0, 10}, DPZL()); err == nil {
		t.Fatal("expected non-positive dim error")
	}
	bad := DPZL()
	bad.P = -1
	if _, err := Compress(f.Data, f.Dims, bad); err == nil {
		t.Fatal("expected invalid P error")
	}
	bad2 := DPZL()
	bad2.Width = quant.IndexWidth(9)
	if _, err := Compress(f.Data, f.Dims, bad2); err == nil {
		t.Fatal("expected invalid width error")
	}
	bad3 := DPZL()
	bad3.TVE = 0
	bad3.Selection = TVEThreshold
	if _, err := Compress(f.Data, f.Dims, bad3); err == nil {
		t.Fatal("expected invalid TVE error")
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	f := smoothField()
	c, err := Compress(f.Data, f.Dims, DPZL())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(context.Background(), nil, 0, 0, nil); err == nil {
		t.Fatal("expected error for empty stream")
	}
	if _, _, err := Decompress(context.Background(), []byte("NOPE1234"), 0, 0, nil); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, _, err := Decompress(context.Background(), c.Bytes[:len(c.Bytes)/2], 0, 0, nil); err == nil {
		t.Fatal("expected error for truncated stream")
	}
	// v3 streams treat any trailing-region anomaly as a damaged index:
	// the data decode survives (the index degrades to absent) and Verify
	// reports the framing problem instead.
	tail := make([]byte, len(c.Bytes)+4)
	copy(tail, c.Bytes)
	if _, _, err := Decompress(context.Background(), tail, 0, 0, nil); err != nil {
		t.Fatalf("v3 trailing bytes should degrade to no-index, got %v", err)
	}
	if err := Verify(tail); err == nil {
		t.Fatal("Verify accepted trailing bytes on a v3 stream")
	}
	pv2 := DPZL()
	pv2.NoIndex = true
	c2, err := Compress(f.Data, f.Dims, pv2)
	if err != nil {
		t.Fatal(err)
	}
	tail2 := make([]byte, len(c2.Bytes)+4)
	copy(tail2, c2.Bytes)
	if _, _, err := Decompress(context.Background(), tail2, 0, 0, nil); err == nil {
		t.Fatal("expected error for trailing bytes on a v2 stream")
	}
	ver := make([]byte, len(c.Bytes))
	copy(ver, c.Bytes)
	ver[4] = 99
	if _, _, err := Decompress(context.Background(), ver, 0, 0, nil); err == nil {
		t.Fatal("expected error for bad version")
	}
}

func TestNinesTVE(t *testing.T) {
	if got := NinesTVE(3); math.Abs(got-0.999) > 1e-12 {
		t.Fatalf("NinesTVE(3) = %v", got)
	}
	if got := NinesTVE(8); math.Abs(got-0.99999999) > 1e-15 {
		t.Fatalf("NinesTVE(8) = %v", got)
	}
}

func TestSchemePresets(t *testing.T) {
	l, s := DPZL(), DPZS()
	if l.P != 1e-3 || l.Width != quant.Width1 {
		t.Fatalf("DPZL = %+v", l)
	}
	if s.P != 1e-4 || s.Width != quant.Width2 {
		t.Fatalf("DPZS = %+v", s)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionStrings(t *testing.T) {
	if KneePoint.String() != "knee-point" || TVEThreshold.String() != "tve" {
		t.Fatal("selection labels wrong")
	}
}

func TestStageTimingsPopulated(t *testing.T) {
	f := smoothField()
	c, _ := roundTrip(t, f, DPZL())
	d := c.Stats.Trace.ByName()
	if d["total"] <= 0 {
		t.Fatal("total not recorded")
	}
	sum := d["decompose"] + d["dct"] + d["pca"] + d["quant"] + d["zlib"]
	if sum > d["total"]*2 {
		t.Fatalf("stage times %v exceed total %v", sum, d["total"])
	}
}

// TestPCASubStageTimings checks that the VIF probe, the covariance, the
// eigensolve and the projection are timed as parts of the pca stage, and
// that no VIF span is reported when no probe runs.
func TestPCASubStageTimings(t *testing.T) {
	f := smoothField()
	c, _ := roundTrip(t, f, DPZL())
	d := c.Stats.Trace.ByName()
	if d["vif"] <= 0 || d["gram"] <= 0 || d["eig"] <= 0 || d["project"] <= 0 {
		t.Fatalf("sub-stages not recorded: vif %v, gram %v, eig %v, project %v",
			d["vif"], d["gram"], d["eig"], d["project"])
	}
	if sum := d["vif"] + d["gram"] + d["eig"] + d["project"]; sum > d["pca"] {
		t.Fatalf("vif %v + gram %v + eig %v + project %v exceed pca %v",
			d["vif"], d["gram"], d["eig"], d["project"], d["pca"])
	}
	p := DPZL()
	p.Standardize = StandardizeOff
	c, _ = roundTrip(t, f, p)
	if v, ok := c.Stats.Trace.ByName()["vif"]; ok {
		t.Fatalf("no probe runs with standardization off, yet vif = %v", v)
	}
}

func TestConstantDataRoundTrip(t *testing.T) {
	data := make([]float64, 4096)
	for i := range data {
		data[i] = 7.25
	}
	c, err := Compress(data, []int{64, 64}, DPZS())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// P bounds the score error, not the end-to-end error; identical
	// scores quantize with identical error, which adds coherently at the
	// block's first position. ~2% of the value is the expected ceiling
	// here (cf. the paper's Table IV accuracy-loss discussion).
	for i, v := range out {
		if math.Abs(v-7.25) > 0.15 {
			t.Fatalf("constant data reconstructed as %v at %d", v, i)
		}
	}
	if c.Stats.CRTotal < 50 {
		t.Fatalf("constant data CR = %.1f, want ≫ 50", c.Stats.CRTotal)
	}
}

func TestDecompressRankProgressive(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.TVE = NinesTVE(6)
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	k := c.Stats.K
	if k < 3 {
		t.Skipf("k=%d too small for a progressive test", k)
	}
	var prev float64 = -1
	for _, rank := range []int{1, k / 2, k} {
		out, dims, err := Decompress(context.Background(), c.Bytes, 0, rank, nil)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if len(out) != len(f.Data) || dims[0] != f.Dims[0] {
			t.Fatalf("rank %d: shape mismatch", rank)
		}
		psnr := stats.PSNR(f.Data, out)
		if psnr < prev-0.5 {
			t.Fatalf("PSNR fell from %.2f to %.2f as rank grew to %d", prev, psnr, rank)
		}
		prev = psnr
	}
	// rank 0 == full rank.
	full, _, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullK, _, err := Decompress(context.Background(), c.Bytes, 0, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if full[i] != fullK[i] {
			t.Fatal("rank=0 and rank=k reconstructions differ")
		}
	}
	// Out-of-range ranks rejected.
	if _, _, err := Decompress(context.Background(), c.Bytes, 0, k+1, nil); err == nil {
		t.Fatal("expected error for rank > k")
	}
	if _, _, err := Decompress(context.Background(), c.Bytes, 0, -1, nil); err == nil {
		t.Fatal("expected error for negative rank")
	}
}

func TestCompressRejectsNonFinite(t *testing.T) {
	data := make([]float64, 4096)
	data[100] = math.NaN()
	if _, err := Compress(data, []int{64, 64}, DPZL()); err == nil {
		t.Fatal("expected NaN rejection")
	}
	data[100] = math.Inf(1)
	if _, err := Compress(data, []int{64, 64}, DPZL()); err == nil {
		t.Fatal("expected Inf rejection")
	}
}

func TestTuneForPSNR(t *testing.T) {
	f := smoothField()
	p, achieved, err := TuneForPSNR(f.Data, f.Dims, 45, DPZS())
	if err != nil {
		t.Fatal(err)
	}
	if achieved < 45 {
		t.Fatalf("achieved %.1f dB below target", achieved)
	}
	// Verify the returned params actually deliver it.
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.PSNR(f.Data, out); got < 45 {
		t.Fatalf("tuned params deliver %.1f dB", got)
	}
	// An absurd target must fail with the best effort reported.
	if _, best, err := TuneForPSNR(f.Data, f.Dims, 500, DPZL()); err == nil {
		t.Fatal("expected unreachable-target error")
	} else if best <= 0 {
		t.Fatalf("best-effort PSNR %v not reported", best)
	}
	if _, _, err := TuneForPSNR(f.Data, f.Dims, math.NaN(), DPZS()); err == nil {
		t.Fatal("expected invalid-target error")
	}
}
