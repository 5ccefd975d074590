package pca

import (
	"math"
	"math/rand"
	"testing"

	"dpz/internal/mat"
	"dpz/internal/metrics"
)

func TestSpectrumMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	x := lowRankData(150, 20, 5, 0.5, rng)
	vals, totalVar, err := Spectrum(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(totalVar-m.TotalVar) > 1e-9*(1+m.TotalVar) {
		t.Fatalf("total variance %v vs %v", totalVar, m.TotalVar)
	}
	for i := range vals {
		if math.Abs(vals[i]-m.Eigenvalues[i]) > 1e-8*(1+vals[i]) {
			t.Fatalf("eigenvalue %d: %v vs %v", i, vals[i], m.Eigenvalues[i])
		}
	}
}

func TestSpectrumStandardized(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	x := lowRankData(200, 8, 8, 1, rng)
	vals, totalVar, err := Spectrum(x, Options{Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Correlation matrix trace = number of features.
	if math.Abs(totalVar-8) > 1e-9 {
		t.Fatalf("standardized total variance %v, want 8", totalVar)
	}
	var sum float64
	for _, v := range vals {
		if v < 0 {
			t.Fatalf("negative clamped eigenvalue %v", v)
		}
		sum += v
	}
	if math.Abs(sum-8) > 1e-8 {
		t.Fatalf("eigenvalue sum %v, want 8", sum)
	}
}

func TestSpectrumValidation(t *testing.T) {
	if _, _, err := Spectrum(mat.NewDense(1, 5), Options{}); err == nil {
		t.Fatal("expected error for a single sample")
	}
}

func TestTVECurveOf(t *testing.T) {
	curve := TVECurveOf([]float64{3, 1}, 4)
	if math.Abs(curve[0]-0.75) > 1e-15 || math.Abs(curve[1]-1) > 1e-15 {
		t.Fatalf("curve = %v", curve)
	}
	flat := TVECurveOf([]float64{0, 0}, 0)
	if flat[0] != 1 || flat[1] != 1 {
		t.Fatalf("zero-variance curve = %v", flat)
	}
}

// The FitTVE tests exercise FitExact at a TVE target: the fit that
// replaced the geometric-ladder FitTVE on the exact path.

func TestFitTVESmallFallsThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	x := lowRankData(100, 10, 3, 0.01, rng)
	m, tr, err := FitExact(x, Selection{TVE: 0.999}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The full spectrum is always there; the basis stops at k.
	if len(m.Eigenvalues) != 10 {
		t.Fatalf("fit returned %d eigenvalues, want the full 10", len(m.Eigenvalues))
	}
	if tr.K != m.KForTVE(0.999) || tr.K > 4 {
		t.Fatalf("rank-3 data selected k=%d (KForTVE %d)", tr.K, m.KForTVE(0.999))
	}
	if _, cols := m.Components.Dims(); cols != tr.K {
		t.Fatalf("%d components computed for k=%d", cols, tr.K)
	}
}

func TestFitTVELargeTruncates(t *testing.T) {
	// 300 features, intrinsic rank 6: the fit must compute far fewer
	// eigenvectors than features and still reconstruct well.
	rng := rand.New(rand.NewSource(304))
	x := lowRankData(400, 300, 6, 1e-4, rng)
	m, tr, err := FitExact(x, Selection{TVE: 0.999}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, cols := m.Components.Dims(); cols != tr.K || cols >= 300 {
		t.Fatalf("computed %d eigenvectors for k=%d of 300", cols, tr.K)
	}
	curve := m.TVECurve()
	if curve[tr.K-1] < 0.999 {
		t.Fatalf("k=%d does not reach the target: %v", tr.K, curve[tr.K-1])
	}
	recon := m.Reconstruct(x, tr.K)
	var num, den float64
	for i, v := range x.Data() {
		d := v - recon.Data()[i]
		num += d * d
		den += v * v
	}
	if num/den > 1e-3 {
		t.Fatalf("relative reconstruction error %g too large", num/den)
	}
}

func TestFitTVEValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	x := lowRankData(400, 300, 3, 0.1, rng)
	if _, _, err := FitExact(x, Selection{TVE: 0}, Options{}, nil); err == nil {
		t.Fatal("expected error for target 0")
	}
	if _, _, err := FitExact(x, Selection{TVE: 1.5}, Options{}, nil); err == nil {
		t.Fatal("expected error for target > 1")
	}
	if _, _, err := FitExact(mat.NewDense(1, 4), Selection{TVE: 0.9}, Options{}, nil); err == nil {
		t.Fatal("expected single-sample rejection")
	}
	if _, _, err := FitExact(mat.NewDense(5, 0), Selection{TVE: 0.9}, Options{}, nil); err == nil {
		t.Fatal("expected zero-feature rejection")
	}
}

func TestFitKValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(308))
	x := lowRankData(30, 6, 3, 0.1, rng)
	if _, _, err := FitExact(x, Selection{K: -1}, Options{Seed: 1}, nil); err == nil {
		t.Fatal("expected k<0 rejection")
	}
	if _, _, err := FitExact(x, Selection{K: 7}, Options{Seed: 1}, nil); err == nil {
		t.Fatal("expected k>c rejection")
	}
	if _, _, err := FitExact(mat.NewDense(1, 6), Selection{K: 2}, Options{Seed: 1}, nil); err == nil {
		t.Fatal("expected single-sample rejection")
	}
	m, tr, err := FitExact(x, Selection{K: 3}, Options{Standardize: true, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scales == nil || len(m.Eigenvalues) != 3 || tr.K != 3 || !tr.Standardized {
		t.Fatalf("standardized fixed-K model: %+v, trace %+v", m, tr)
	}
	// A fixed K ignores the TVE target, and Extra widens the basis.
	m, _, err = FitExact(x, Selection{K: 2, Extra: 2, TVE: 7}, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Eigenvalues) != 4 || m.Components.Cols() != 4 {
		t.Fatalf("K=2 Extra=2 fit kept %d values, %d columns", len(m.Eigenvalues), m.Components.Cols())
	}
}

// TestFitExactFixedKMatchesSpectrum: at a fixed K the leading eigenvalues
// and the TVE denominator agree with the spectrum-first fit's, through
// TopK's dense side (M ≤ 256) and through its subspace iteration
// (M > 256, K ≤ M/8).
func TestFitExactFixedKMatchesSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(310))
	for _, c := range []int{40, 300} {
		x := lowRankData(2*c, c, 6, 1e-3, rng)
		ref, _, err := FitExact(x, Selection{TVE: 0.999}, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var tr metrics.Trace
		m, _, err := FitExact(x, Selection{K: 8}, Options{Seed: 1, Workers: 2}, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := spanNames(tr); got != "gram/pca eig/pca" {
			t.Fatalf("M=%d: fixed-K fit spans %q, want the Gram and the eigensolve", c, got)
		}
		if math.Abs(m.TotalVar-ref.TotalVar) > 1e-9*ref.TotalVar {
			t.Fatalf("M=%d: TotalVar %v, spectrum sum %v", c, m.TotalVar, ref.TotalVar)
		}
		for i, v := range m.Eigenvalues {
			if math.Abs(v-ref.Eigenvalues[i]) > 1e-6*ref.Eigenvalues[0] {
				t.Fatalf("M=%d: eigenvalue %d = %v, want %v", c, i, v, ref.Eigenvalues[i])
			}
		}
	}
}

func TestFitTVEStandardizedLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(309))
	x := lowRankData(400, 300, 4, 1e-3, rng)
	m, tr, err := FitExact(x, Selection{TVE: 0.999}, Options{Standardize: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scales == nil || !tr.Standardized {
		t.Fatal("scales missing on standardized fit")
	}
	if math.Abs(m.TotalVar-300) > 1e-6 {
		t.Fatalf("correlation trace %v, want 300", m.TotalVar)
	}
}
