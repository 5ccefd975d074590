package pca

import (
	"math"
	"math/rand"
	"testing"

	"dpz/internal/mat"
)

// spectrumData builds an n×m matrix whose covariance spectrum follows the
// prescribed per-feature variances: column j is iid N(0, vals[j]). The
// sample spectrum tracks vals up to Wishart noise, which is all the
// adversarial-spectrum tests need.
func spectrumData(n, m int, vals []float64, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, m)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := 0; j < m; j++ {
			row[j] = math.Sqrt(vals[j]) * rng.NormFloat64()
		}
	}
	return x
}

// modelsEqual compares every bit of two fitted models.
func modelsEqual(a, b *Model) bool {
	if a.TotalVar != b.TotalVar || len(a.Eigenvalues) != len(b.Eigenvalues) {
		return false
	}
	for i, v := range a.Eigenvalues {
		if v != b.Eigenvalues[i] {
			return false
		}
	}
	for i, v := range a.Means {
		if v != b.Means[i] {
			return false
		}
	}
	ad, bd := a.Components.Data(), b.Components.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i, v := range ad {
		if v != bd[i] {
			return false
		}
	}
	return true
}

// adoptedTVE is the cumulative variance fraction the model's adopted
// columns capture.
func adoptedTVE(m *Model) float64 {
	if m.TotalVar <= 0 {
		return 1
	}
	var cum float64
	for _, v := range m.Eigenvalues {
		cum += v
	}
	return cum / m.TotalVar
}

// Seeded sketch fits must be byte-identical across worker counts and
// repeated runs — the compression pipeline's reproducibility contract.
func TestFitTVESketchByteIdenticalAcrossWorkersAndRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := lowRankData(600, 300, 24, 1e-6, rng)
	const target = 0.999
	opts := Options{Sketch: true, Workers: 1}
	base, baseDec, err := FitTVESketch(x, target, opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		for rep := 0; rep < 2; rep++ {
			o := opts
			o.Workers = w
			m, dec, err := FitTVESketch(x, target, o, 7)
			if err != nil {
				t.Fatalf("workers=%d rep=%d: %v", w, rep, err)
			}
			if dec != baseDec {
				t.Fatalf("workers=%d rep=%d: decision %v vs %v", w, rep, dec, baseDec)
			}
			if !modelsEqual(m, base) {
				t.Fatalf("workers=%d rep=%d: model bits differ", w, rep)
			}
		}
	}
}

func TestFitKSketchByteIdenticalAcrossWorkersAndRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := lowRankData(600, 300, 24, 1e-6, rng)
	opts := Options{Sketch: true, Workers: 1}
	base, baseDec, err := FitKSketch(x, 24, 0.95, opts, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		for rep := 0; rep < 2; rep++ {
			o := opts
			o.Workers = w
			m, dec, err := FitKSketch(x, 24, 0.95, o, 11)
			if err != nil {
				t.Fatalf("workers=%d rep=%d: %v", w, rep, err)
			}
			if dec != baseDec {
				t.Fatalf("workers=%d rep=%d: decision %v vs %v", w, rep, dec, baseDec)
			}
			if !modelsEqual(m, base) {
				t.Fatalf("workers=%d rep=%d: model bits differ", w, rep)
			}
		}
	}
}

// Adversarial spectra: whatever path the ladder takes, the returned model
// must reach the requested TVE — accept via the exact guard, refine via
// the guaranteed covariance path, or fall back to the dense solve whose
// full spectrum trivially reaches any target.
func TestFitTVESketchAdversarialSpectra(t *testing.T) {
	const (
		n = 600
		m = 280
	)
	flat := make([]float64, m)
	dominant := make([]float64, m)
	heavy := make([]float64, m)
	for j := 0; j < m; j++ {
		flat[j] = 1
		dominant[j] = 1e-3
		heavy[j] = math.Pow(float64(j+1), -1.5)
	}
	dominant[0] = 1e6

	cases := []struct {
		name   string
		x      *mat.Dense
		target float64
	}{
		{"flat", spectrumData(n, m, flat, 3), 0.999},
		{"single-dominant", spectrumData(n, m, dominant, 5), 0.999},
		{"rank-deficient", lowRankData(n, m, 10, 0, rand.New(rand.NewSource(9))), 0.99999},
		{"heavy-tailed", spectrumData(n, m, heavy, 13), 0.99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, dec, err := FitTVESketch(tc.x, tc.target, Options{Sketch: true, Workers: 2}, 17)
			if err != nil {
				t.Fatal(err)
			}
			if got := adoptedTVE(model); got < tc.target-1e-9 {
				t.Fatalf("decision %v reached TVE %.9f < target %v", dec, got, tc.target)
			}
			t.Logf("decision=%v k=%d", dec, len(model.Eigenvalues))
		})
	}
	// The flat spectrum specifically must not burn time sketching: the
	// pilot's Ky Fan cut routes it straight to the dense solver.
	model, dec, err := FitTVESketch(spectrumData(n, m, flat, 3), 0.999, Options{Sketch: true, Workers: 2}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if dec != SketchFallback {
		t.Fatalf("flat spectrum must fall back to the dense solve, got %v", dec)
	}
	if len(model.Eigenvalues) != m {
		t.Fatalf("fallback must carry the full spectrum, got %d values", len(model.Eigenvalues))
	}
}

// The no-unverified-accept regression test: every SketchAccept model's
// eigenvalues must be the exact full-data Rayleigh quotients of its
// components — i.e. the guard, not the sketch, produced them — and their
// sum must meet the target. A sketch that slipped an unverified estimate
// into the model would fail the recomputation below.
func TestFitTVESketchAcceptIsExactlyVerified(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x := lowRankData(600, 300, 20, 1e-6, rng)
	const target = 0.999
	model, dec, err := FitTVESketch(x, target, Options{Sketch: true, Workers: 2}, 23)
	if err != nil {
		t.Fatal(err)
	}
	if dec != SketchAccept {
		t.Fatalf("clean low-rank data must take the accept fast path, got %v", dec)
	}
	r, c := x.Dims()
	k := len(model.Eigenvalues)
	if sum := adoptedTVE(model); sum < target {
		t.Fatalf("accepted basis captures %.9f < target %v", sum, target)
	}
	// Recompute λ_j = ‖C v_j‖²/(r−1) on the full centered data with naive
	// loops, independent of the jammed kernels the guard itself used.
	centered := center(x, model.Means, model.Scales)
	den := float64(r - 1)
	for j := 0; j < k; j++ {
		var q float64
		for i := 0; i < r; i++ {
			var dot float64
			row := centered.Row(i)
			for f := 0; f < c; f++ {
				dot += row[f] * model.Components.At(f, j)
			}
			q += dot * dot
		}
		q /= den
		if math.Abs(q-model.Eigenvalues[j])/model.Eigenvalues[0] > 1e-10 {
			t.Fatalf("eigenvalue %d is not the exact Rayleigh quotient: %v vs %v", j, model.Eigenvalues[j], q)
		}
	}
	// Adopted columns must be orthonormal: they came straight from the
	// sketch's orthonormal basis.
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			var dot float64
			for f := 0; f < c; f++ {
				dot += model.Components.At(f, i) * model.Components.At(f, j)
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("adopted columns %d,%d not orthonormal: dot %v", i, j, dot)
			}
		}
	}
}

func TestFitTVESketchSmallInputFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	x := lowRankData(200, 100, 8, 1e-6, rng) // c ≤ sketchMinFeatures
	model, dec, err := FitTVESketch(x, 0.99, Options{Sketch: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dec != SketchFallback {
		t.Fatalf("small input must fall back, got %v", dec)
	}
	exact, err := Fit(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(model, exact) {
		t.Fatal("small-input fallback must match the plain cold fit bit-for-bit")
	}
}

func TestFitTVESketchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x := lowRankData(40, 20, 4, 1e-6, rng)
	if _, _, err := FitTVESketch(x, 0, Options{Sketch: true}, 1); err == nil {
		t.Fatal("target 0 must error")
	}
	if _, _, err := FitTVESketch(x, 1.5, Options{Sketch: true}, 1); err == nil {
		t.Fatal("target >1 must error")
	}
	if _, _, err := FitTVESketch(mat.NewDense(1, 20), 0.9, Options{Sketch: true}, 1); err == nil {
		t.Fatal("single-sample input must error")
	}
	if _, _, err := FitKSketch(x, 0, 0.9, Options{Sketch: true}, 1); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, _, err := FitKSketch(x, 21, 0.9, Options{Sketch: true}, 1); err == nil {
		t.Fatal("k>m must error")
	}
}

// FitTVESketch must agree with the exact fit (FitExact): both
// reach the target, and the sketch's adopted component count sits in the
// narrow window the Ky Fan inequality allows — never below the exact
// minimum, and at most a few verified extras above it.
func FuzzFitTVESketchMatchesExact(f *testing.F) {
	f.Add(int64(1), 0.99)
	f.Add(int64(7), 0.999)
	f.Add(int64(19), 0.9)
	f.Fuzz(func(t *testing.T, seed int64, target float64) {
		if math.IsNaN(target) {
			t.Skip()
		}
		// Clamp into the regime the sketch ladder targets.
		target = 0.5 + math.Mod(math.Abs(target), 0.49999)
		rng := rand.New(rand.NewSource(seed))
		rank := 6 + int(uint64(seed)%24)
		x := lowRankData(560, 280, rank, 1e-5, rng)

		sk, dec, err := FitTVESketch(x, target, Options{Sketch: true, Workers: 2}, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, exact, err := FitExact(x, Selection{TVE: target}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := adoptedTVE(sk); got < target-1e-9 {
			t.Fatalf("sketch (decision %v) reached %.9f < target %v", dec, got, target)
		}
		kExact := exact.K
		kSketch := sk.KForTVE(target)
		if kSketch < kExact-1 {
			t.Fatalf("sketch claims %d components reach %.6f but the exact minimum is %d — an unverified accept", kSketch, target, kExact)
		}
		if kSketch > kExact+16 {
			t.Fatalf("sketch needed %d components for %.6f, exact needs %d — basis quality collapsed", kSketch, target, kExact)
		}
	})
}
