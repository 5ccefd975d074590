package pca

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dpz/internal/mat"
	"dpz/internal/metrics"
)

// spanNames lists a trace's spans as name/parent, in order.
func spanNames(tr metrics.Trace) string {
	var names []string
	for _, s := range tr {
		names = append(names, s.Name+"/"+s.Parent)
	}
	return strings.Join(names, " ")
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFitExactMatchesFit: without standardization the spectrum, total
// variance and selected k are Fit's bit for bit, and the computed
// leading vectors are Fit's up to round-off (same sign).
func TestFitExactMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, tc := range []struct {
		rows, cols, rank int
		tve              float64
	}{
		{300, 120, 5, 0.999},  // low rank: inverse iteration
		{200, 40, 40, 0.9999}, // near full rank: accumulation route
	} {
		x := lowRankData(tc.rows, tc.cols, tc.rank, 0.05, rng)
		full, err := Fit(x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, tr, err := FitExact(x, Selection{TVE: tc.tve}, Options{Workers: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloatBits(m.Eigenvalues, full.Eigenvalues) {
			t.Fatalf("%dx%d: spectrum differs from Fit's", tc.rows, tc.cols)
		}
		if math.Float64bits(m.TotalVar) != math.Float64bits(full.TotalVar) {
			t.Fatalf("%dx%d: total variance %v, Fit %v", tc.rows, tc.cols, m.TotalVar, full.TotalVar)
		}
		if want := full.KForTVE(tc.tve); tr.K != want {
			t.Fatalf("%dx%d: k=%d, Fit selects %d", tc.rows, tc.cols, tr.K, want)
		}
		if tr.Standardized || m.Scales != nil {
			t.Fatalf("%dx%d: standardized without being asked", tc.rows, tc.cols)
		}
		got := m.ProjectionMatrix(tr.K)
		want := full.ProjectionMatrix(tr.K)
		if !mat.Equal(got, want, 1e-9) {
			t.Fatalf("%dx%d: leading components differ from Fit's", tc.rows, tc.cols)
		}
	}
}

// TestFitExactExtraComponents: Extra widens the basis past k, capped at
// the feature count, without moving k.
func TestFitExactExtraComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	x := lowRankData(200, 30, 4, 0.01, rng)
	for _, extra := range []int{0, 3, 100} {
		m, tr, err := FitExact(x, Selection{TVE: 0.999, Extra: extra}, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, cols := m.Components.Dims(); cols != min(tr.K+extra, 30) {
			t.Fatalf("extra=%d: %d components for k=%d", extra, cols, tr.K)
		}
		if tr.K > 5 {
			t.Fatalf("extra=%d: rank-4 data selected k=%d", extra, tr.K)
		}
	}
}

// TestFitExactKneeSelection: the knee callback sees the cumulative TVE
// curve, and its answer is clamped to [1, M].
func TestFitExactKneeSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	x := lowRankData(150, 20, 3, 0.01, rng)
	for _, tc := range []struct{ ask, want int }{{2, 2}, {0, 1}, {99, 20}} {
		var seen []float64
		m, tr, err := FitExact(x, Selection{Knee: func(curve []float64) int {
			seen = curve
			return tc.ask
		}}, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.K != tc.want {
			t.Fatalf("knee %d: k=%d, want %d", tc.ask, tr.K, tc.want)
		}
		curve := m.TVECurve()
		if !sameFloatBits(seen, curve) {
			t.Fatalf("knee %d: callback curve differs from the model's", tc.ask)
		}
	}
}

// TestFitExactAutoStandardize: the probe on the fit's own covariance
// standardizes independent features (every VIF near 1) and leaves
// collinear low-rank features alone, and a standardized fit analyzes
// the correlation matrix with Scales = √diag(C).
func TestFitExactAutoStandardize(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	noise := mat.NewDense(400, 12)
	for i := range noise.Data() {
		noise.Data()[i] = rng.NormFloat64() * float64(1+i%12)
	}
	m, tr, err := FitExact(noise, Selection{TVE: 0.99, AutoStandardize: true}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Standardized || m.Scales == nil {
		t.Fatal("independent features were not standardized")
	}
	if math.Abs(m.TotalVar-12) > 1e-9 {
		t.Fatalf("correlation trace %v, want 12", m.TotalVar)
	}
	stds := mat.ColStds(noise, m.Means)
	for j, s := range m.Scales {
		if math.Abs(s-stds[j]) > 1e-12*stds[j] {
			t.Fatalf("scale %d: %v, column std %v", j, s, stds[j])
		}
	}
	// Fit on standardized features agrees up to round-off.
	ref, err := Fit(noise, Options{Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range ref.Eigenvalues {
		if math.Abs(v-m.Eigenvalues[j]) > 1e-10 {
			t.Fatalf("eigenvalue %d: %v, Fit %v", j, m.Eigenvalues[j], v)
		}
	}

	collinear := lowRankData(400, 12, 2, 1e-3, rng)
	var spans metrics.Trace
	m, tr, err = FitExact(collinear, Selection{TVE: 0.99, AutoStandardize: true}, Options{}, &spans)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Standardized || m.Scales != nil {
		t.Fatal("collinear features were standardized")
	}
	if got := spanNames(spans); got != "gram/pca vif/pca eig/pca" {
		t.Fatalf("spans %q, want the Gram, the probe and the eigensolve", got)
	}

	// Without the flag no probe runs, and Options.Standardize decides.
	spans = nil
	_, tr, err = FitExact(noise, Selection{TVE: 0.99}, Options{}, &spans)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanNames(spans); tr.Standardized || got != "gram/pca eig/pca" {
		t.Fatalf("probe ran without AutoStandardize: %+v, spans %q", tr, got)
	}
}

// TestFitExactConstantFeature: a zero-variance feature gets scale 1, as
// mat.ColStds gives it, instead of a division by zero.
func TestFitExactConstantFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	x := mat.NewDense(50, 4)
	for i := 0; i < 50; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		x.Set(i, 3, 7)
	}
	m, _, err := FitExact(x, Selection{TVE: 0.99}, Options{Standardize: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scales[3] != 1 {
		t.Fatalf("constant feature scale %v, want 1", m.Scales[3])
	}
	for _, v := range m.Eigenvalues {
		if math.IsNaN(v) {
			t.Fatal("NaN eigenvalue")
		}
	}
}

func TestCorrelationVIF(t *testing.T) {
	// Two features with correlation ρ have VIF 1/(1−ρ²) each.
	rho := 0.8
	corr := mat.NewDense(2, 2)
	corr.Set(0, 0, 1)
	corr.Set(1, 1, 1)
	corr.Set(0, 1, rho)
	corr.Set(1, 0, rho)
	vif, err := CorrelationVIF(corr)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 - rho*rho)
	for j, v := range vif {
		if math.Abs(v-want) > 1e-4 {
			t.Fatalf("vif[%d] = %v, want %v", j, v, want)
		}
	}
	// Perfect collinearity clips at 1e6 instead of failing.
	corr.Set(0, 1, 1)
	corr.Set(1, 0, 1)
	corr.Set(0, 0, 1)
	corr.Set(1, 1, 1)
	vif, err = CorrelationVIF(corr)
	if err != nil {
		t.Fatal(err)
	}
	if vif[0] < 1e5 {
		t.Fatalf("collinear vif %v, want near the 1e6 clip", vif[0])
	}
}
