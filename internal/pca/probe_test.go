package pca

import (
	"math"
	"math/rand"
	"testing"

	"dpz/internal/mat"
)

// frozenMeanVIFBelowCutoff is the standardize probe as it ran before
// LowLinearity: ridge, the full Cholesky inverse diagonal, VIFs clipped
// to [1, 1e6], mean below 5; a matrix that will not factor answers
// false. It is the oracle LowLinearity must agree with. Do not edit it.
func frozenMeanVIFBelowCutoff(corr *mat.Dense) bool {
	n := corr.Rows()
	a := corr.Clone()
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1e-6)
	}
	diag, err := mat.SPDInverseDiag(a)
	if err != nil {
		return false
	}
	var sum float64
	for _, v := range diag {
		if v < 1 {
			v = 1
		}
		if v > 1e6 || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1e6
		}
		sum += v
	}
	return sum/float64(n) < 5
}

// equicorrelated returns the M×M correlation matrix with every
// off-diagonal entry rho.
func equicorrelated(m int, rho float64) *mat.Dense {
	c := mat.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				c.Set(i, j, 1)
			} else {
				c.Set(i, j, rho)
			}
		}
	}
	return c
}

// equicorrelatedRho solves for the rho ≥ 0 at which every feature of an
// M-feature equicorrelated matrix has VIF target once the ridge is added:
// with a = 1−ρ+ridge, (R+ridge·I)⁻¹ has diagonal (1 − ρ/(a+Mρ))/a, which
// rises monotonically in ρ.
func equicorrelatedRho(m int, target float64) float64 {
	vif := func(rho float64) float64 {
		a := 1 - rho + vifRidge
		return (1 - rho/(a+float64(m)*rho)) / a
	}
	lo, hi := 0.0, 1.0
	for it := 0; it < 200; it++ {
		mid := (lo + hi) / 2
		if vif(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func checkProbe(t *testing.T, name string, corr *mat.Dense) bool {
	t.Helper()
	want := frozenMeanVIFBelowCutoff(corr)
	if got := LowLinearity(corr.Clone()); got != want {
		t.Errorf("%s: LowLinearity = %v, full inverse diagonal says %v", name, got, want)
	}
	return want
}

// TestLowLinearityMatchesFullProbe pins the bound-first probe to the full
// inverse-diagonal probe: equicorrelated matrices whose mean VIF sits a
// hair (1e-6) either side of the cutoff and around the early-exit margin,
// far above it (the early exit) and below it; exactly collinear features;
// small random matrices with M ∈ {2,3,4}; and matrices that fail
// Cholesky, before and after the bound clears.
func TestLowLinearityMatchesFullProbe(t *testing.T) {
	for _, m := range []int{2, 3, 4, 16, 64, 256} {
		for _, rel := range []float64{-1e-6, 1e-6, -1e-3, 1e-3, 2e-3, -0.5, 1, 10, 1e4} {
			corr := equicorrelated(m, equicorrelatedRho(m, VIFCutoff*(1+rel)))
			if got := checkProbe(t, "equicorrelated", corr); got != (rel < 0) {
				t.Errorf("M=%d mean VIF 5·(1%+g): full probe says low linearity %v", m, rel, got)
			}
		}
	}

	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{2, 3, 4, 10, 40} {
		// Exactly collinear: the last feature repeats the first.
		x := mat.NewDense(4*m+8, m)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		for i := 0; i < x.Rows(); i++ {
			x.Set(i, m-1, x.At(i, 0))
		}
		checkProbe(t, "collinear", mat.Correlation(x))
	}
	for _, m := range []int{2, 3, 4} {
		for trial := 0; trial < 200; trial++ {
			// Mixing strength sweeps mean VIFs from ~1 to far above 5.
			mix := rng.Float64() * 3
			x := mat.NewDense(12, m)
			base := make([]float64, x.Rows())
			for i := range base {
				base[i] = rng.NormFloat64()
			}
			for i := 0; i < x.Rows(); i++ {
				for j := 0; j < m; j++ {
					x.Set(i, j, mix*base[i]+rng.NormFloat64())
				}
			}
			checkProbe(t, "random", mat.Correlation(x))
		}
	}

	// Not positive definite at the second pivot, before any bound.
	indefinite := mat.NewDenseData(2, 2, []float64{1, 2, 2, 1})
	if LowLinearity(indefinite.Clone()) || frozenMeanVIFBelowCutoff(indefinite) {
		t.Error("a matrix that fails Cholesky must count as high linearity")
	}
	// Near-duplicate leading features clear the bound before the
	// indefinite trailing pivot is reached; the full probe fails there.
	late := equicorrelated(8, 0.999999)
	late.Set(7, 6, 2)
	late.Set(6, 7, 2)
	if _, err := mat.Cholesky(late); err == nil {
		t.Fatal("test matrix unexpectedly positive definite")
	}
	if LowLinearity(late.Clone()) || frozenMeanVIFBelowCutoff(late) {
		t.Error("a matrix that fails Cholesky late must count as high linearity")
	}
}

// TestProbePivotsBoundVIF checks the bound LowLinearity stops on: the
// clipped VIF of each feature against its predecessors, 1/L_jj², never
// exceeds its clipped VIF against all other features.
func TestProbePivotsBoundVIF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{2, 5, 33, 128} {
		for trial := 0; trial < 5; trial++ {
			x := lowRankData(3*m, m, 1+rng.Intn(m), rng.Float64(), rng)
			corr := mat.Correlation(x)
			vif, err := CorrelationVIF(corr.Clone())
			if err != nil {
				t.Fatal(err)
			}
			addRidge(corr)
			_, stopped, err := mat.CholeskyUntil(corr, func(j int, ljj float64) bool {
				if p := clipVIF(1 / (ljj * ljj)); p > vif[j]*(1+1e-9) {
					t.Errorf("M=%d feature %d: partial VIF %v above its VIF %v", m, j, p, vif[j])
				}
				return false
			})
			if stopped || err != nil {
				t.Fatalf("M=%d: factorization stopped=%v err=%v", m, stopped, err)
			}
		}
	}
}

// TestTransformMatchesMulInto holds the GemmInto projection within 1e-12
// (relative to the largest score) of the order-preserving MulInto product
// it replaced, and bit-identical across worker counts, on the perfbench
// shape at flat and low-rank k and on small odd shapes.
func TestTransformMatchesMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range []struct{ rows, cols, k int }{
		{512, 256, 254}, {512, 256, 42}, {7, 5, 3}, {33, 17, 1}, {129, 65, 64},
	} {
		x := lowRankData(s.rows, s.cols, s.cols/2+1, 0.1, rng)
		m, _, err := FitExact(x, Selection{TVE: 1, AutoStandardize: true}, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		centered := mat.NewDense(s.rows, s.cols)
		centerInto(centered, x, m.Means, m.Scales)
		want := mat.NewDense(s.rows, s.k)
		mat.MulInto(want, centered, m.ProjectionMatrix(s.k), 1)
		var scale float64
		for _, v := range want.Data() {
			scale = math.Max(scale, math.Abs(v))
		}
		var ref *mat.Dense
		for _, w := range []int{1, 2, 8} {
			got := m.TransformW(x, s.k, w)
			if ref == nil {
				ref = got
				for i, v := range got.Data() {
					if d := math.Abs(v - want.Data()[i]); d > 1e-12*scale {
						t.Fatalf("%dx%d k=%d: score %d off by %g (scale %g)", s.rows, s.cols, s.k, i, d, scale)
					}
				}
				continue
			}
			if !sameFloatBits(got.Data(), ref.Data()) {
				t.Fatalf("%dx%d k=%d: workers=%d scores differ from workers=1", s.rows, s.cols, s.k, w)
			}
		}
	}
}
