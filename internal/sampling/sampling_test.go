package sampling

import (
	"math/rand"
	"testing"

	"dpz/internal/mat"
)

// collinearMatrix builds an n×m matrix whose columns are noisy copies of a
// handful of latent signals: high collinearity, high VIF.
func collinearMatrix(n, m, rank int, noise float64, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	latent := mat.NewDense(n, rank)
	for i := range latent.Data() {
		latent.Data()[i] = rng.NormFloat64()
	}
	x := mat.NewDense(n, m)
	for j := 0; j < m; j++ {
		src := j % rank
		for i := 0; i < n; i++ {
			x.Set(i, j, latent.At(i, src)+noise*rng.NormFloat64())
		}
	}
	return x
}

// independentMatrix builds an n×m matrix of i.i.d. noise: VIF ≈ 1.
func independentMatrix(n, m int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, m)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return x
}

func TestVIFHighForCollinear(t *testing.T) {
	x := collinearMatrix(400, 20, 3, 0.05, 101)
	vif, err := VIF(x, 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range vif {
		mean += v
	}
	mean /= float64(len(vif))
	if mean < VIFCutoff {
		t.Fatalf("collinear data mean VIF = %v, want > %v", mean, VIFCutoff)
	}
}

func TestVIFLowForIndependent(t *testing.T) {
	x := independentMatrix(500, 20, 102)
	vif, err := VIF(x, 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range vif {
		if v > 3 {
			t.Fatalf("independent feature %d VIF = %v, want ~1", j, v)
		}
		if v < 1 {
			t.Fatalf("VIF %v below 1", v)
		}
	}
}

func TestVIFFeatureCap(t *testing.T) {
	x := independentMatrix(300, 50, 103)
	vif, err := VIF(x, 0.5, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vif) != 10 {
		t.Fatalf("capped VIF returned %d features, want 10", len(vif))
	}
}

func TestVIFValidation(t *testing.T) {
	x := independentMatrix(100, 5, 104)
	if _, err := VIF(x, 0, 0, 1); err == nil {
		t.Fatal("expected error for rate 0")
	}
	if _, err := VIF(x, 1.5, 0, 1); err == nil {
		t.Fatal("expected error for rate > 1")
	}
	if _, err := VIF(mat.NewDense(2, 5), 0.5, 0, 1); err == nil {
		t.Fatal("expected error for too few rows")
	}
}

func TestRunEstimatesSmallKForLowRank(t *testing.T) {
	x := collinearMatrix(600, 30, 2, 0.01, 105)
	rep, err := Run(x, Params{TVE: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ke > 5 {
		t.Fatalf("rank-2 data estimated Ke = %d, want small", rep.Ke)
	}
	if rep.LowLinear {
		t.Fatal("collinear data flagged low-linearity")
	}
	if len(rep.SubsetKs) != 3 {
		t.Fatalf("analyzed %d subsets, want 3", len(rep.SubsetKs))
	}
	if rep.CRpLow <= 1 || rep.CRpHigh < rep.CRpLow {
		t.Fatalf("CRp range [%v, %v] implausible", rep.CRpLow, rep.CRpHigh)
	}
}

func TestRunLargeKForNoise(t *testing.T) {
	x := independentMatrix(600, 30, 106)
	rep, err := Run(x, Params{TVE: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ke < 15 {
		t.Fatalf("white noise estimated Ke = %d, want close to M", rep.Ke)
	}
	if !rep.LowLinear {
		t.Fatal("white noise not flagged low-linearity")
	}
}

func TestRunRejectsTinyMatrix(t *testing.T) {
	if _, err := Run(independentMatrix(10, 5, 107), Params{S: 10}); err == nil {
		t.Fatal("expected error for too few rows per subset")
	}
}

func TestRunCustomST(t *testing.T) {
	x := collinearMatrix(500, 12, 2, 0.05, 108)
	rep, err := Run(x, Params{S: 5, T: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SubsetKs) != 5 {
		t.Fatalf("T=5 analyzed %d subsets", len(rep.SubsetKs))
	}
	// T > S gets clamped.
	rep2, err := Run(x, Params{S: 4, T: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.SubsetKs) != 4 {
		t.Fatalf("clamped T analyzed %d subsets", len(rep2.SubsetKs))
	}
}

func TestCRpRangeMonotoneInK(t *testing.T) {
	lo1, hi1 := CRpRange(1000, 100, 5)
	lo2, hi2 := CRpRange(1000, 100, 50)
	if lo2 >= lo1 || hi2 >= hi1 {
		t.Fatalf("larger k must predict lower CR: k=5 [%v,%v], k=50 [%v,%v]", lo1, hi1, lo2, hi2)
	}
}

func TestSubsetIndicesFirstMiddleLast(t *testing.T) {
	idx := subsetIndices(10, 3, 1)
	if idx[0] != 0 || idx[1] != 5 || idx[2] != 9 {
		t.Fatalf("default subsets = %v, want [0 5 9]", idx)
	}
	// All distinct even when extras are drawn.
	idx6 := subsetIndices(8, 6, 1)
	seen := map[int]bool{}
	for _, i := range idx6 {
		if seen[i] {
			t.Fatalf("duplicate subset index in %v", idx6)
		}
		seen[i] = true
		if i < 0 || i >= 8 {
			t.Fatalf("index %d out of range", i)
		}
	}
}

// TestReportRowsAreAnalyzedSubsets: Rows stacks exactly the subsets Run
// analyzed, in analysis order, each row once.
func TestReportRowsAreAnalyzedSubsets(t *testing.T) {
	const n = 100
	x := collinearMatrix(n, 6, 2, 0.05, 109)
	for _, c := range []struct{ s, t, analyzed int }{
		{1, 0, 1}, {2, 0, 2}, {10, 0, 3}, {10, 1, 1}, {10, 5, 5}, {7, 3, 3},
	} {
		rep, err := Run(x, Params{S: c.s, T: c.t})
		if err != nil {
			t.Fatal(err)
		}
		if rep.S != c.s || len(rep.Subsets) != c.analyzed || len(rep.SubsetKs) != c.analyzed {
			t.Fatalf("S=%d T=%d: report S=%d subsets %v ks %v", c.s, c.t, rep.S, rep.Subsets, rep.SubsetKs)
		}
		var want []int
		for _, si := range rep.Subsets {
			lo, hi := si*(n/c.s), (si+1)*(n/c.s)
			if si == c.s-1 {
				hi = n
			}
			for r := lo; r < hi; r++ {
				want = append(want, r)
			}
		}
		rows := rep.Rows(x)
		if rows.Rows() != len(want) {
			t.Fatalf("S=%d T=%d: %d rows, want %d", c.s, c.t, rows.Rows(), len(want))
		}
		for i, r := range want {
			for j, v := range rows.Row(i) {
				//dpzlint:ignore floateq the rows are copies of x's rows
				if v != x.At(r, j) {
					t.Fatalf("S=%d T=%d: row %d is not x's row %d", c.s, c.t, i, r)
				}
			}
		}
	}
}
