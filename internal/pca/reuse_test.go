package pca

import (
	"math"
	"math/rand"
	"testing"

	"dpz/internal/mat"
)

// lowRankField synthesizes an r×c matrix dominated by a few smooth
// component directions plus small noise — the DCT-domain shape the reuse
// layer targets.
func lowRankField(r, c, rank int, noise float64, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	basis := mat.NewDense(c, rank)
	for j := 0; j < rank; j++ {
		for i := 0; i < c; i++ {
			basis.Set(i, j, math.Sin(float64(i+1)*float64(j+1)/float64(c)*math.Pi))
		}
	}
	x := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		row := x.Row(i)
		for j := 0; j < rank; j++ {
			w := rng.NormFloat64() * math.Pow(2, -float64(j))
			for k := 0; k < c; k++ {
				row[k] += w * basis.At(k, j)
			}
		}
		for k := 0; k < c; k++ {
			row[k] += noise * rng.NormFloat64()
		}
	}
	return x
}

// achievedTVE measures the exact variance fraction x's projection onto
// the model's leading k components captures, independently of the
// model's own bookkeeping.
func achievedTVE(x *mat.Dense, m *Model, k int) float64 {
	r, c := x.Dims()
	centered := mat.NewDense(r, c)
	centerInto(centered, x, m.Means, m.Scales)
	var total float64
	for _, v := range centered.Data() {
		total += v * v
	}
	proj := m.ProjectionMatrix(k)
	y := mat.Mul(centered, proj)
	var captured float64
	for _, v := range y.Data() {
		captured += v * v
	}
	if total == 0 {
		return 1
	}
	return captured / total
}

func TestFitTVEReuseColdWithoutCandidate(t *testing.T) {
	x := lowRankField(300, 48, 4, 1e-3, 1)
	opts := Options{}
	m, dec, err := fitReuseTVE(x, 0.999, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec != ReuseCold {
		t.Fatalf("decision = %v, want cold", dec)
	}
	// Cold reuse must be bit-identical to the plain fit.
	ref, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Eigenvalues) != len(ref.Eigenvalues) {
		t.Fatalf("eigenvalue count %d != %d", len(m.Eigenvalues), len(ref.Eigenvalues))
	}
	for i := range ref.Eigenvalues {
		//dpzlint:ignore floateq bit-identity to the cold fit is the contract under test
		if m.Eigenvalues[i] != ref.Eigenvalues[i] {
			t.Fatalf("eigenvalue %d differs from cold fit", i)
		}
	}
}

func TestFitTVEReuseAcceptsOwnBasis(t *testing.T) {
	const target = 0.999
	x := lowRankField(300, 48, 4, 1e-3, 2)
	ref, err := Fit(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := ref.KForTVE(target)
	cand := &Basis{Q: ref.ProjectionMatrix(min(k+4, len(ref.Eigenvalues)))}
	m, dec, err := fitReuseTVE(x, target, Options{}, cand)
	if err != nil {
		t.Fatal(err)
	}
	if dec != ReuseAccept {
		t.Fatalf("decision = %v, want accept (the fit's own basis trivially passes the guard)", dec)
	}
	ka := m.KForTVE(target)
	if got := achievedTVE(x, m, ka); got < target {
		t.Fatalf("accepted basis achieves TVE %v < target %v", got, target)
	}
}

func TestFitTVEReuseAcceptOnSimilarTile(t *testing.T) {
	const target = 0.999
	a := lowRankField(300, 48, 4, 1e-3, 3)
	// The "next tile": same component structure, different sample weights.
	b := lowRankField(300, 48, 4, 1e-3, 4)
	mA, err := Fit(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kA := mA.KForTVE(target)
	cand := &Basis{Q: mA.ProjectionMatrix(min(kA+8, len(mA.Eigenvalues)))}
	m, dec, err := fitReuseTVE(b, target, Options{}, cand)
	if err != nil {
		t.Fatal(err)
	}
	if dec == ReuseCold {
		t.Fatalf("similar tile fell back to cold fit")
	}
	// Whatever path was taken, the quality contract must hold exactly.
	k := m.KForTVE(target)
	if got := achievedTVE(b, m, k); got < target-1e-12 {
		t.Fatalf("decision %v achieves TVE %v < target %v", dec, got, target)
	}
}

// TestFitTVEReuseRefinesUselessCandidate offers a candidate the guard
// must reject. The decision is cold, and the model is FitExact's bit for
// bit: a rejected candidate leaves no trace in the fit.
func TestFitTVEReuseRefinesUselessCandidate(t *testing.T) {
	const target = 0.9999
	x := lowRankField(400, 60, 6, 1e-3, 5)
	// A candidate spanning none of the structure: canonical directions
	// orthogonal to smooth sines are a poor but valid orthonormal basis.
	q := mat.NewDense(60, 2)
	q.Set(59, 0, 1)
	q.Set(58, 1, 1)
	m, dec, err := fitReuseTVE(x, target, Options{}, &Basis{Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if dec != ReuseCold {
		t.Fatalf("decision = %v, want cold", dec)
	}
	ref, _, err := FitExact(x, Selection{TVE: target}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameModel(t, m, ref)
}

// sameModel fails unless got's means, scales, spectrum, components and
// total variance equal want's bit for bit.
func sameModel(t *testing.T, got, want *Model) {
	t.Helper()
	same := func(a, b []float64) bool {
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
	switch {
	case !same(got.Means, want.Means):
		t.Fatal("means differ from FitExact's")
	case !same(got.Scales, want.Scales):
		t.Fatal("scales differ from FitExact's")
	case !same(got.Eigenvalues, want.Eigenvalues):
		t.Fatal("eigenvalues differ from FitExact's")
	case got.Components.Rows() != want.Components.Rows() || !same(got.Components.Data(), want.Components.Data()):
		t.Fatal("components differ from FitExact's")
	case math.Float64bits(got.TotalVar) != math.Float64bits(want.TotalVar):
		t.Fatal("total variance differs from FitExact's")
	}
}

func TestFitTVEReuseRejectsMismatchedCandidate(t *testing.T) {
	x := lowRankField(200, 32, 3, 1e-3, 6)
	// Wrong feature count → cold.
	_, dec, err := fitReuseTVE(x, 0.999, Options{}, &Basis{Q: mat.NewDense(31, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if dec != ReuseCold {
		t.Fatalf("shape-mismatched candidate: decision = %v, want cold", dec)
	}
	// Standardization mode mismatch → cold.
	_, dec, err = fitReuseTVE(x, 0.999, Options{}, &Basis{Q: mat.NewDense(32, 3), Standardized: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec != ReuseCold {
		t.Fatalf("standardize-mismatched candidate: decision = %v, want cold", dec)
	}
}

// fitReuseTVE is FitReuse at a TVE target, returning its decision.
func fitReuseTVE(x *mat.Dense, target float64, opts Options, cand *Basis) (*Model, ReuseDecision, error) {
	m, tr, err := FitReuse(x, Selection{TVE: target}, opts, cand, nil)
	return m, tr.Reuse, err
}

func TestFitKReusePaths(t *testing.T) {
	const target = 0.99
	x := lowRankField(300, 48, 4, 1e-3, 7)
	opts := Options{Seed: 1}
	ref, _, err := FitExact(x, Selection{K: 6}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	cand := &Basis{Q: ref.ProjectionMatrix(6)}

	// Accept: the fit's own top-k basis passes the guard at a reachable
	// target.
	m, tr, err := FitReuse(x, Selection{K: 6, TVE: target}, opts, cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reuse != ReuseAccept || tr.K != 6 {
		t.Fatalf("decision = %v, k = %d; want accept at 6", tr.Reuse, tr.K)
	}
	if got := achievedTVE(x, m, 6); got < target {
		t.Fatalf("accepted basis achieves TVE %v < target %v", got, target)
	}

	// No target (knee-selected k) and a candidate narrower than K: the
	// guard cannot run, so both fit cold, FitExact's model bit for bit.
	for _, c := range []struct {
		name string
		sel  Selection
		cand *Basis
	}{
		{"no target", Selection{K: 6}, cand},
		{"narrow candidate", Selection{K: 6, TVE: target}, &Basis{Q: ref.ProjectionMatrix(4)}},
		{"nil candidate", Selection{K: 6, TVE: target}, nil},
	} {
		m, tr, err = FitReuse(x, c.sel, opts, c.cand, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Reuse != ReuseCold || tr.K != 6 {
			t.Fatalf("%s: decision = %v, k = %d; want cold at 6", c.name, tr.Reuse, tr.K)
		}
		sameModel(t, m, ref)
	}
}

func TestFitReuseValidation(t *testing.T) {
	x := lowRankField(60, 8, 3, 1e-3, 9)
	for name, sel := range map[string]Selection{
		"no target":   {},
		"target > 1":  {TVE: 1.5},
		"k > c":       {K: 9, TVE: 0.99},
		"negative k":  {K: -1, TVE: 0.99},
		"knee":        {Knee: func([]float64) int { return 2 }},
		"auto":        {TVE: 0.99, AutoStandardize: true},
		"knee with k": {K: 2, Knee: func([]float64) int { return 2 }},
	} {
		if _, _, err := FitReuse(x, sel, Options{}, nil, nil); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	if _, _, err := FitReuse(mat.NewDense(1, 8), Selection{TVE: 0.9}, Options{}, nil, nil); err == nil {
		t.Fatal("expected single-sample rejection")
	}
}

func TestReuseDecisionString(t *testing.T) {
	cases := map[ReuseDecision]string{
		ReuseOff:          "off",
		ReuseCold:         "cold",
		ReuseAccept:       "accept",
		ReuseDecision(42): "ReuseDecision(42)",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
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

// tiltedTile returns a copy of the low-rank tile coef·basis whose basis
// is tilted by tilt·G (G iid normal), plus small noise: the same
// coefficients on a rotated subspace. A small tilt leaves a basis fitted
// on it good enough for the guard to accept on the original tile; a large
// one makes the guard reject it.
func tiltedTile(coef, basis *mat.Dense, tilt float64, rng *rand.Rand) *mat.Dense {
	tb := mat.NewDense(basis.Rows(), basis.Cols())
	for i, v := range basis.Data() {
		tb.Data()[i] = v + tilt*rng.NormFloat64()
	}
	y := mat.Mul(coef, tb)
	for i := range y.Data() {
		y.Data()[i] += 1e-5 * rng.NormFloat64()
	}
	return y
}

// Every fit path meets the TVE target: FitReuse, offered the exact fit's
// basis (with the published margin) from a tilted copy of the tile, must
// adopt a basis that reaches the target on the tile itself, whether the
// guard accepts the candidate or rejects it. A rejection is the cold fit:
// its model is FitExact's bit for bit. With a TVE
// selection its component count sits in the window the Ky Fan inequality
// allows — never below the exact minimum (up to rounding), and at most a
// few verified extras above it. With K fixed at that minimum, as the
// sampled path fixes k_e, the K adopted columns reach the target too.
func FuzzFitReuseMeetsTarget(f *testing.F) {
	f.Add(int64(1), 0.99, 0.0, false)
	f.Add(int64(7), 0.999, 0.05, false)
	f.Add(int64(19), 0.9, 0.9, false)
	f.Add(int64(23), 0.99999, 0.3, false)
	f.Add(int64(1), 0.99, 0.0, true)
	f.Add(int64(7), 0.999, 0.05, true)
	f.Add(int64(19), 0.9, 0.9, true)
	f.Fuzz(func(t *testing.T, seed int64, target, tilt float64, fixedK bool) {
		if math.IsNaN(target) || math.IsInf(target, 0) || math.IsNaN(tilt) || math.IsInf(tilt, 0) {
			t.Skip()
		}
		target = 0.5 + math.Mod(math.Abs(target), 0.49999)
		tilt = math.Mod(math.Abs(tilt), 1)
		rng := rand.New(rand.NewSource(seed))
		const n, m = 480, 200
		rank := 6 + int(uint64(seed)%24)
		coef := mat.NewDense(n, rank)
		for i := range coef.Data() {
			coef.Data()[i] = 10 * rng.NormFloat64()
		}
		basis := mat.NewDense(rank, m)
		for i := range basis.Data() {
			basis.Data()[i] = rng.NormFloat64()
		}
		x := mat.Mul(coef, basis)
		for i := range x.Data() {
			x.Data()[i] += 1e-5*rng.NormFloat64() + 3
		}
		prev, _, err := FitExact(tiltedTile(coef, basis, tilt, rng), Selection{TVE: target, Extra: BasisMargin}, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, exact, err := FitExact(x, Selection{TVE: target}, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sel := Selection{TVE: target}
		if fixedK {
			sel.K = exact.K
		}
		opts := Options{Workers: 2, Seed: seed}
		got, tr, err := FitReuse(x, sel, opts, &Basis{Q: prev.Components}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Reuse == ReuseCold {
			cold, _, err := FitExact(x, sel, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameModel(t, got, cold)
		}
		if fixedK {
			if len(got.Eigenvalues) != exact.K || tr.K != exact.K {
				t.Fatalf("fixed K=%d (decision %v) adopted %d columns, traced k=%d", exact.K, tr.Reuse, len(got.Eigenvalues), tr.K)
			}
		}
		if tve := adoptedTVE(got); tve < target-1e-9 {
			t.Fatalf("reuse (decision %v) reached %.9f < target %v", tr.Reuse, tve, target)
		}
		k := got.KForTVE(target)
		if k < exact.K-1 {
			t.Fatalf("reuse (decision %v) claims %d components reach %.6f but the exact minimum is %d — an unverified accept", tr.Reuse, k, target, exact.K)
		}
		if k > exact.K+16 {
			t.Fatalf("reuse (decision %v) needed %d components for %.6f, exact needs %d — basis quality collapsed", tr.Reuse, k, target, exact.K)
		}
		t.Logf("fixedK=%v decision=%v k=%d exact=%d", fixedK, tr.Reuse, k, exact.K)
	})
}

// TestAcceptedScoresArePlainProjection: on accept FitReuse hands over
// the projection onto its K selected columns, gathered from its one
// product with every candidate column. Each score depends only on its
// row and its basis column, so the gather must equal Transform of the
// adopted model bit for bit, at every worker count. The candidate's
// columns come reversed, so the re-ranking reorders them.
func TestAcceptedScoresArePlainProjection(t *testing.T) {
	const target = 0.999
	x := lowRankField(600, 48, 6, 1e-3, 21)
	for _, c := range []struct {
		name        string
		fixedK, std bool
	}{
		{"tve", false, false},
		{"fixed k", true, false},
		{"standardized", false, true},
	} {
		ref, rep, err := FitExact(x, Selection{TVE: target, Extra: BasisMargin}, Options{Standardize: c.std}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sel := Selection{TVE: target}
		if c.fixedK {
			sel.K = rep.K
		}
		kc := min(rep.K+BasisMargin, ref.Components.Cols())
		q := mat.NewDense(48, kc)
		for j := 0; j < kc; j++ {
			for i := 0; i < 48; i++ {
				q.Set(i, j, ref.Components.At(i, kc-1-j))
			}
		}
		for _, w := range []int{1, 2, 8} {
			m, rep, err := FitReuse(x, sel, Options{Standardize: c.std, Workers: w}, &Basis{Q: q, Standardized: c.std}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reuse != ReuseAccept || rep.Projection == nil {
				t.Fatalf("%s w%d: decision %v with projection %v, want an accept with scores", c.name, w, rep.Reuse, rep.Projection)
			}
			got, want := rep.Projection, m.Project(x, rep.K, 1)
			if got.Scores.Cols() != rep.K || !sameFloatBits(got.Scores.Data(), m.Transform(x, rep.K).Data()) {
				t.Fatalf("%s w%d: accepted scores differ from Transform of the adopted model", c.name, w)
			}
			if !sameFloatBits(got.ColEnergy, want.ColEnergy) || math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
				t.Fatalf("%s w%d: accepted energies %v / %v, projection's %v / %v", c.name, w, got.ColEnergy, got.Energy, want.ColEnergy, want.Energy)
			}
		}
	}
}
