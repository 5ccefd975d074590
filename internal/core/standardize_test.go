package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dpz/internal/blockio"
	"dpz/internal/dataset"
	"dpz/internal/mat"
	"dpz/internal/pca"
	"dpz/internal/sampling"
	"dpz/internal/transform"
)

// frozenVIFProbe is a frozen copy of the auto-standardize probe the
// exact Stage 2 path ran before it read the VIFs off its own covariance:
// sampling.VIF(x, 0.01, 0, seed) — a correlation matrix of a random row
// sample at least twice as tall as it is wide, ridge 1e-6, Cholesky
// inverse diagonal, VIFs clipped to [1, 1e6] — and a mean VIF below 5.
// It is the oracle the covariance-derived probe must agree with. Do not
// edit it.
func frozenVIFProbe(x *mat.Dense, seed int64) bool {
	n, m := x.Dims()
	if n < 4 || m < 2 {
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	nrows := max(int(float64(n)*0.01), 4)
	nrows = min(nrows, n)
	cols := m
	if nrows < 2*cols {
		nrows = 2 * cols
		if nrows > n {
			nrows = n
			cols = nrows / 2
			if cols < 2 {
				return false
			}
		}
	}
	distinct := func(n, want int) []int {
		if want >= n {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out
		}
		perm := rng.Perm(n)[:want]
		sort.Ints(perm)
		return perm
	}
	colIdx := distinct(m, cols)
	rowIdx := distinct(n, nrows)
	sub := mat.NewDense(nrows, cols)
	for i, r := range rowIdx {
		for j, c := range colIdx {
			sub.Set(i, j, x.At(r, c))
		}
	}
	corr := mat.Correlation(sub)
	for i := 0; i < cols; i++ {
		corr.Set(i, i, corr.At(i, i)+1e-6)
	}
	diag, err := mat.SPDInverseDiag(corr)
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
	return sum/float64(cols) < 5
}

// stage2Input is the matrix Stage 2 sees for a field under the default
// parameters: DCT'd blocks, transposed to samples × features.
func stage2Input(t *testing.T, f *dataset.Field) *mat.Dense {
	t.Helper()
	shape, err := blockio.ShapeFor(f.Dims, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := blockio.Decompose(f.Data, shape)
	if err != nil {
		t.Fatal(err)
	}
	transform.ForwardRows(blocks.Data(), shape.M, shape.N, 1)
	return blocks.T()
}

// TestStandardizeDecisionPinned pins the auto-standardize bit to the
// frozen standalone probe on every dataset at scale 0.1 and on both
// benchmark snapshot fields, for both probes: the default compress,
// whose exact fit runs pca.LowLinearity on its own covariance, and the
// sampled probe of the TVE reuse fit (pca.LowLinearity on
// sampling.SampleCorrelation). A flip is a behaviour change of the probe
// and must be reported, not absorbed.
func TestStandardizeDecisionPinned(t *testing.T) {
	fields := map[string]*dataset.Field{
		"perfbench-CLDHGH-256x512": dataset.CESM("CLDHGH", 256, 512, 2001),
		"perfbench-PHIS-256x512":   dataset.CESM("PHIS", 256, 512, 2003),
	}
	for _, name := range dataset.Names {
		f, err := dataset.Generate(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		fields[name] = f
	}
	for name, f := range fields {
		x := stage2Input(t, f)
		want := frozenVIFProbe(x, 1)
		if corr, err := sampling.SampleCorrelation(x, 0.01, 0, 1); err != nil {
			t.Errorf("%s: sample correlation: %v", name, err)
		} else if got := pca.LowLinearity(corr); got != want {
			t.Errorf("%s: standardize flipped: sampled probe says %v, frozen probe %v", name, got, want)
		}
		c, err := Compress(f.Data, f.Dims, Default())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := c.Stats.Standardized; got != want {
			t.Errorf("%s: standardize flipped: covariance probe says %v, frozen probe %v", name, got, want)
		} else {
			t.Logf("%s: M=%d standardize=%v", name, c.Stats.M, got)
		}
	}
}
