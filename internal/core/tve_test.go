package core

import (
	"fmt"
	"math"
	"testing"

	"dpz/internal/blockio"
	"dpz/internal/dataset"
	"dpz/internal/knee"
	"dpz/internal/mat"
	"dpz/internal/pca"
	"dpz/internal/transform"
)

// TestTVEAchievedOnFullData: every Stage 2 path reports one TVE, the
// share of the stream's centered energy its K components keep on the
// full data. For cold TVE, cold knee, reuse-accepted and sampled
// compressions of a low-rank and a flat field, Stats.TVEAchieved must be
// bit-identical at workers 1 and 2 and lie within 1e-12 of a plain
// float64 recomputation from the path's model, refitted here through the
// pca package. On cold fits it must also lie within 1e-12 of the
// eigenvalue ratio Σ_{j<K} λ_j / TotalVar that k was selected by.
func TestTVEAchievedOnFullData(t *testing.T) {
	for _, name := range []string{"PHIS", "CLDHGH"} {
		f := dataset.CESM(name, 180, 360, 7)
		for _, path := range []string{"cold tve", "cold knee", "reuse accept", "sampled"} {
			t.Run(fmt.Sprintf("%s/%s", name, path), func(t *testing.T) {
				var ref float64
				for _, w := range []int{1, 2} {
					got, model := compressOnPath(t, f, path, w)
					k := got.K
					if w == 1 {
						ref = got.TVEAchieved
					} else if math.Float64bits(got.TVEAchieved) != math.Float64bits(ref) {
						t.Fatalf("workers 2: TVE %v, workers 1: %v", got.TVEAchieved, ref)
					}
					if want := fullDataTVE(stage1(t, f, w), model, k); math.Abs(got.TVEAchieved-want) > 1e-12 {
						t.Fatalf("workers %d: TVE %v, full-data recomputation %v", w, got.TVEAchieved, want)
					}
					if path == "cold tve" || path == "cold knee" {
						var kept float64
						for _, v := range model.Eigenvalues[:k] {
							kept += v
						}
						if ratio := kept / model.TotalVar; math.Abs(got.TVEAchieved-ratio) > 1e-12 {
							t.Fatalf("workers %d: TVE %v, eigenvalue ratio %v", w, got.TVEAchieved, ratio)
						}
					}
				}
			})
		}
	}
}

// compressOnPath compresses f with DPZ-l on one Stage 2 path and returns
// the stats with the model that path fitted, refitted through the pca
// package from the choices the stats record.
func compressOnPath(t *testing.T, f *dataset.Field, path string, workers int) (Stats, *pca.Model) {
	t.Helper()
	p := DPZL()
	p.Workers = workers
	x := stage1(t, f, workers)
	popts := pca.Options{Workers: workers, Seed: 1}
	compress := func(p Params) Stats {
		c, err := Compress(f.Data, f.Dims, p)
		if err != nil {
			t.Fatal(err)
		}
		popts.Standardize = c.Stats.Standardized
		return c.Stats
	}
	var st Stats
	var model *pca.Model
	var err error
	switch path {
	case "cold tve":
		st = compress(p)
		model, _, err = pca.FitExact(x, pca.Selection{TVE: p.TVE}, popts, nil)
	case "cold knee":
		p.Selection = KneePoint
		st = compress(p)
		detect := func(curve []float64) int { return knee.Detect(curve, p.Fit) }
		model, _, err = pca.FitExact(x, pca.Selection{Knee: detect}, popts, nil)
	case "reuse accept":
		p.Basis = &BasisExchange{}
		compress(p)
		cand := p.Basis.Fitted
		p.Basis = &BasisExchange{Candidate: cand}
		if st = compress(p); st.BasisDecision != pca.ReuseAccept {
			t.Fatalf("the field's own basis was not accepted: %v", st.BasisDecision)
		}
		model, _, err = pca.FitReuse(x, pca.Selection{TVE: p.TVE, Extra: pca.BasisMargin}, popts, cand, nil)
	case "sampled":
		p.UseSampling = true
		st = compress(p)
		model, _, err = pca.FitExact(st.Sampling.Rows(x), pca.Selection{K: st.K}, popts, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st, model
}

// stage1 is Stage 1 of a DPZ-l compression: x's rows are the DCT
// coefficient positions, its columns the blocks.
func stage1(t *testing.T, f *dataset.Field, workers int) *mat.Dense {
	t.Helper()
	shape, err := blockio.ShapeFor(f.Dims, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := blockio.Decompose(f.Data, shape)
	if err != nil {
		t.Fatal(err)
	}
	transform.ForwardRows(blocks.Data(), shape.M, shape.N, workers)
	return blocks.T()
}

// fullDataTVE is the share of x's energy, centered on the model's means
// and scaled by its scales, that its k leading components keep, summed
// with plain loops.
func fullDataTVE(x *mat.Dense, m *pca.Model, k int) float64 {
	r, c := x.Dims()
	xc := make([]float64, c)
	var kept, total float64
	for i := 0; i < r; i++ {
		for j := range xc {
			v := x.At(i, j) - m.Means[j]
			if m.Scales != nil {
				v /= m.Scales[j]
			}
			xc[j] = v
			total += v * v
		}
		for col := 0; col < k; col++ {
			var y float64
			for j, v := range xc {
				y += v * m.Components.At(j, col)
			}
			kept += y * y
		}
	}
	if total == 0 {
		return 1
	}
	return kept / total
}
