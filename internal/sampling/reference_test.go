package sampling

// Frozen copies of VIF and of the full-inverse mat.SPDInverse it used
// before the diagonal-only inverse replaced it, with the mat.Cholesky and
// mat.CholeskySolve of that time (adapted to mat's exported accessors).
// They are the bit-identity oracle for VIF: only the inversion changed,
// so every VIF and every standardize decision must keep its bits.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dpz/internal/blockio"
	"dpz/internal/dataset"
	"dpz/internal/mat"
	"dpz/internal/transform"
)

// refVIF computes the variance inflation factor of each (sampled) feature of
// x from a row sample of rate sr: VIF_j = 1/(1−R²_j), obtained as the
// diagonal of the inverse correlation matrix. Columns beyond maxFeatures
// are uniformly subsampled. Returned VIFs are clipped to [1, 1e6] (exact
// collinearity would otherwise be infinite).
func refVIF(x *mat.Dense, sr float64, maxFeatures int, seed int64) ([]float64, error) {
	n, m := x.Dims()
	if n < 4 || m < 2 {
		return nil, fmt.Errorf("sampling: matrix %dx%d too small for VIF", n, m)
	}
	if sr <= 0 || sr > 1 {
		return nil, fmt.Errorf("sampling: sampling rate %v out of (0,1]", sr)
	}
	rng := rand.New(rand.NewSource(seed))
	nrows := int(float64(n) * sr)
	if nrows < 4 {
		nrows = 4
	}
	if nrows > n {
		nrows = n
	}
	cols := m
	if maxFeatures > 0 && cols > maxFeatures {
		cols = maxFeatures
	}
	// A correlation matrix estimated from fewer samples than features is
	// rank deficient and its inverse diagonal is meaningless; keep the
	// sample at least twice as tall as it is wide, shrinking the feature
	// sample if the row budget cannot stretch.
	if nrows < 2*cols {
		nrows = 2 * cols
		if nrows > n {
			nrows = n
			cols = nrows / 2
			if cols < 2 {
				return nil, fmt.Errorf("sampling: %d rows cannot support a VIF estimate", n)
			}
		}
	}
	colIdx := sampleDistinct(m, cols, rng)
	rowIdx := sampleDistinct(n, nrows, rng)
	sub := mat.NewDense(nrows, cols)
	for i, r := range rowIdx {
		src := x.Row(r)
		dst := sub.Row(i)
		for j, c := range colIdx {
			dst[j] = src[c]
		}
	}
	corr := mat.Correlation(sub)
	// Ridge-regularize so near-singular correlation matrices (the very
	// high collinearity DPZ hopes for) stay invertible; the ridge bounds
	// reported VIFs rather than breaking them.
	const ridge = 1e-6
	for i := 0; i < cols; i++ {
		corr.Set(i, i, corr.At(i, i)+ridge)
	}
	inv, err := refSPDInverse(corr)
	if err != nil {
		return nil, fmt.Errorf("sampling: VIF inversion: %w", err)
	}
	vif := make([]float64, cols)
	for j := 0; j < cols; j++ {
		v := inv.At(j, j)
		if v < 1 {
			v = 1
		}
		if v > 1e6 || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1e6
		}
		vif[j] = v
	}
	return vif, nil
}

// refSPDInverse inverts a symmetric positive-definite matrix via Cholesky.
func refSPDInverse(a *mat.Dense) (*mat.Dense, error) {
	l, err := refCholesky(a)
	if err != nil {
		return nil, err
	}
	n, _ := a.Dims()
	inv := mat.NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := refCholeskySolve(l, e)
		inv.SetCol(j, col)
	}
	return inv, nil
}

// refCholesky factors a symmetric positive-definite matrix a as LLᵀ and
// returns the lower-triangular factor. It returns an error if a is not
// positive definite (within a small jitter tolerance).
func refCholesky(a *mat.Dense) (*mat.Dense, error) {
	ar, ac := a.Dims()
	if ar != ac {
		return nil, fmt.Errorf("mat: cholesky of non-square %dx%d", ar, ac)
	}
	n := ar
	l := mat.NewDense(n, n)
	ld, ad := l.Data(), a.Data()
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			d += ld[j*n+k] * ld[j*n+k]
		}
		d = ad[j*n+j] - d
		if d <= 0 {
			return nil, fmt.Errorf("mat: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		ld[j*n+j] = ljj
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += ld[i*n+k] * ld[j*n+k]
			}
			ld[i*n+j] = (ad[i*n+j] - s) * inv
		}
	}
	return l, nil
}

// refCholeskySolve solves a x = b for symmetric positive definite a given its
// Cholesky factor l (as returned by refCholesky).
func refCholeskySolve(l *mat.Dense, b []float64) []float64 {
	n, _ := l.Dims()
	ld := l.Data()
	if len(b) != n {
		panic("mat: CholeskySolve dimension mismatch")
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= ld[i*n+k] * y[k]
		}
		y[i] = s / ld[i*n+i]
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
	return x
}

// dctBlocks lays f out as Stage 2 sees it: blocks DCT-transformed, then
// transposed so coefficient positions are rows and blocks are features.
func dctBlocks(tb testing.TB, f *dataset.Field) *mat.Dense {
	tb.Helper()
	shape, err := blockio.ShapeFor(f.Dims, 0)
	if err != nil {
		tb.Fatal(err)
	}
	blocks, err := blockio.Decompose(f.Data, shape)
	if err != nil {
		tb.Fatal(err)
	}
	transform.ForwardRows(blocks.Data(), shape.M, shape.N, 1)
	return blocks.T()
}

func meanOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// TestVIFBitIdenticalToReference checks VIF against the full-inverse
// reference on every dataset at the scale the experiments use, on the
// benchmark's 256×512 fields, and on the feature-capped path, and pins
// the auto-standardize decision (mean VIF below the cutoff) each input
// yields with the compressor's probe parameters.
func TestVIFBitIdenticalToReference(t *testing.T) {
	type vifCase struct {
		name        string
		x           *mat.Dense
		maxFeatures int
		standardize bool // pinned decision
	}
	cases := []vifCase{
		{"CLDHGH-256x512", dctBlocks(t, dataset.CESM("CLDHGH", 256, 512, 2001)), 0, false},
		{"PHIS-256x512", dctBlocks(t, dataset.CESM("PHIS", 256, 512, 2003)), 0, false},
		{"CLDHGH-256x512-capped", dctBlocks(t, dataset.CESM("CLDHGH", 256, 512, 2001)), 64, false},
		{"collinear", collinearMatrix(400, 20, 3, 0.05, 101), 0, false},
		{"independent", independentMatrix(500, 20, 102), 0, true},
	}
	pinned := map[string]bool{
		"Isotropic": false, "Channel": false,
		"CLDHGH": false, "CLDLOW": false, "PHIS": false, "FREQSH": false, "FLDSC": false,
		"HACC-x": false, "HACC-vx": true,
	}
	for _, name := range dataset.Names {
		f, err := dataset.Generate(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, vifCase{name, dctBlocks(t, f), 0, pinned[name]})
	}
	for _, tc := range cases {
		want, werr := refVIF(tc.x, 0.01, tc.maxFeatures, 1)
		got, gerr := VIF(tc.x, 0.01, tc.maxFeatures, 1)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s: error %v, reference error %v", tc.name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d VIFs, reference %d", tc.name, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: VIF[%d] = %v, reference %v", tc.name, j, got[j], want[j])
			}
		}
		if std := meanOf(got) < VIFCutoff; std != tc.standardize {
			t.Errorf("%s: standardize = %v (mean VIF %.4g), pinned %v", tc.name, std, meanOf(got), tc.standardize)
		}
	}
}

// TestSPDInverseDiagMatchesReference checks the Cholesky factor and the
// inverse diagonal against the frozen kernels on even and odd orders
// (SPDInverseDiag solves columns in pairs).
func TestSPDInverseDiagMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 7, 64, 65} {
		b := mat.NewDense(n, n)
		for i := range b.Data() {
			b.Data()[i] = rng.NormFloat64()
		}
		a := mat.Mul(b.T(), b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1e-3)
		}
		inv, err := refSPDInverse(a)
		if err != nil {
			t.Fatal(err)
		}
		wantL, err := refCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		gotL, err := mat.Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range gotL.Data() {
			if math.Float64bits(v) != math.Float64bits(wantL.Data()[i]) {
				t.Fatalf("n=%d: Cholesky factor differs from the reference at %d", n, i)
			}
		}
		diag, err := mat.SPDInverseDiag(a)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range diag {
			if math.Float64bits(v) != math.Float64bits(inv.At(j, j)) {
				t.Fatalf("n=%d: diag[%d] = %v, reference %v", n, j, v, inv.At(j, j))
			}
		}
	}
}
