package core

import (
	"fmt"
	"math"
	"testing"

	"dpz/internal/blockio"
	"dpz/internal/dataset"
	"dpz/internal/pca"
	"dpz/internal/sampling"
)

// TestSampledFitUsesAnalyzedRows: Algorithm 2's Stage 2 fits the rows
// sampling.Run analyzed, each once. The stream's achieved TVE must be
// the one a fixed-K fit of exactly those rows gives, bit for bit — for
// S ≤ 2, where a fixed first/middle/last choice would repeat subsets,
// and for T ≠ 3, where it would fit subsets the strategy never analyzed.
func TestSampledFitUsesAnalyzedRows(t *testing.T) {
	// A field whose rows change character along the grid, so subsets
	// differ and a wrong row choice shows in the TVE.
	f := dataset.CESM("PHIS", 90, 180, 21)
	for i := range f.Data {
		f.Data[i] *= 1 + float64(i)/float64(len(f.Data))
	}
	shape, err := blockio.ShapeFor(f.Dims, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := blockio.Decompose(f.Data, shape)
	if err != nil {
		t.Fatal(err)
	}
	x := blocks.T()
	n, m := x.Dims()
	for _, st := range []struct{ s, t, analyzed int }{
		{1, 0, 1}, {2, 0, 2}, {10, 1, 1}, {10, 5, 5},
	} {
		t.Run(fmt.Sprintf("S=%d/T=%d", st.s, st.t), func(t *testing.T) {
			p := DPZL()
			p.UseSampling = true
			p.SkipDCT = true
			p.Sampling = sampling.Params{S: st.s, T: st.t}
			c, err := Compress(f.Data, f.Dims, p)
			if err != nil {
				t.Fatal(err)
			}
			rep := c.Stats.Sampling
			if len(rep.Subsets) != st.analyzed {
				t.Fatalf("analyzed subsets %v, want %d", rep.Subsets, st.analyzed)
			}
			var rows []int
			seen := map[int]bool{}
			for _, si := range rep.Subsets {
				lo, hi := si*(n/st.s), (si+1)*(n/st.s)
				if si == st.s-1 {
					hi = n
				}
				for r := lo; r < hi; r++ {
					if seen[r] {
						t.Fatalf("row %d sampled twice", r)
					}
					seen[r] = true
					rows = append(rows, r)
				}
			}
			sub := rep.Rows(x)
			if sub.Rows() != len(rows) {
				t.Fatalf("fitted %d rows, the strategy analyzed %d", sub.Rows(), len(rows))
			}
			for i, r := range rows {
				for j := 0; j < m; j++ {
					//dpzlint:ignore floateq the sampled rows are copies of x's rows
					if sub.At(i, j) != x.At(r, j) {
						t.Fatalf("sampled row %d is not x's row %d", i, r)
					}
				}
			}
			model, _, err := pca.FitExact(sub, pca.Selection{K: c.Stats.K}, pca.Options{Standardize: c.Stats.Standardized, Seed: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var kept float64
			for _, v := range model.Eigenvalues[:c.Stats.K] {
				kept += v
			}
			if want := kept / model.TotalVar; math.Float64bits(c.Stats.TVEAchieved) != math.Float64bits(want) {
				t.Fatalf("achieved TVE %v, a fit of the analyzed rows gives %v", c.Stats.TVEAchieved, want)
			}
		})
	}
}

// TestSampledCompressReportsFitTimes: the sampled path runs the same cold
// fit as the default path, so it splits the Gram and the eigensolve out
// of the PCA stage too.
func TestSampledCompressReportsFitTimes(t *testing.T) {
	f := smoothField()
	p := DPZL()
	p.UseSampling = true
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Stats.Trace.ByName()
	if d["gram"] <= 0 || d["eig"] <= 0 {
		t.Fatalf("sampled compress reports Gram %v, Eig %v", d["gram"], d["eig"])
	}
	if sum := d["sampling"] + d["gram"] + d["eig"] + d["project"]; sum > d["pca"] {
		t.Fatalf("PCA sub-spans %v exceed the PCA stage %v", sum, d["pca"])
	}
}
