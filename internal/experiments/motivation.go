package experiments

import (
	"fmt"
	"math"
	"sort"

	"dpz/internal/blockio"
	"dpz/internal/mat"
	"dpz/internal/pca"
	"dpz/internal/stats"
	"dpz/internal/transform"
)

// Table1 prints the dataset inventory at the configured scale.
func Table1(cfg Config) error {
	cfg = cfg.withDefaults()
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\ttype\tdims\tvalues\tsize(MB, f32)")
	type row struct{ name, kind string }
	rows := []row{
		{"Isotropic", "turbulence (3D)"}, {"Channel", "turbulence (3D)"},
		{"CLDHGH", "climate (2D)"}, {"CLDLOW", "climate (2D)"}, {"PHIS", "climate (2D)"},
		{"FREQSH", "climate (2D)"}, {"FLDSC", "climate (2D)"},
		{"HACC-x", "cosmology (1D)"}, {"HACC-vx", "cosmology (1D)"},
	}
	for _, r := range rows {
		f, err := load(r.name, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%v\t%d\t%.2f\n", r.name, r.kind, f.Dims, f.Len(),
			float64(4*f.Len())/(1<<20))
	}
	return tw.Flush()
}

// dctBlocks decomposes a field and applies the per-block DCT, returning
// the block matrix (M×N) and shape.
func dctBlocks(data []float64, dims []int, workers int) (*mat.Dense, blockio.Shape, error) {
	shape, err := blockio.ShapeFor(dims, 0)
	if err != nil {
		return nil, shape, err
	}
	blocks, err := blockio.Decompose(data, shape)
	if err != nil {
		return nil, shape, err
	}
	transform.ForwardRows(blocks.Data(), shape.M, shape.N, workers)
	return blocks, shape, nil
}

// Fig1 compares the distribution of the flattened FLDSC data against its
// per-block DCT coefficients: the transform concentrates energy in a few
// large coefficients, leaving a near-symmetric heavy spike at zero.
func Fig1(cfg Config) error {
	cfg = cfg.withDefaults()
	f, err := load("FLDSC", cfg)
	if err != nil {
		return err
	}
	h := stats.Histogram(f.Data, 20)
	fmtHist(cfg.Out, "(a) original FLDSC values", h.Counts, h.Min, h.Max)

	blocks, _, err := dctBlocks(f.Data, f.Dims, cfg.Workers)
	if err != nil {
		return err
	}
	coeff := blocks.Data()
	hc := stats.Histogram(coeff, 20)
	fmtHist(cfg.Out, "(b) DCT coefficients", hc.Counts, hc.Min, hc.Max)

	// The paper's point: a tiny fraction of coefficients carries almost
	// all energy.
	for _, frac := range []float64{0.001, 0.01, 0.05} {
		k := int(frac * float64(len(coeff)))
		if k < 1 {
			k = 1
		}
		fmt.Fprintf(cfg.Out, "energy in top %5.1f%% coefficients: %.4f\n",
			100*frac, stats.ECR(coeff, k))
	}
	fmt.Fprintf(cfg.Out, "entropy: original %.2f bits, DCT %.2f bits (20 bins)\n",
		stats.Entropy(f.Data, 20), stats.Entropy(coeff, 20))
	return nil
}

// Fig2 fits PCA on the FLDSC block data and prints the distribution of
// component scores: component 1 captures the overall trend (largest
// spread), late components are noise.
func Fig2(cfg Config) error {
	cfg = cfg.withDefaults()
	f, err := load("FLDSC", cfg)
	if err != nil {
		return err
	}
	blocks, shape, err := dctBlocks(f.Data, f.Dims, cfg.Workers)
	if err != nil {
		return err
	}
	x := blocks.T()
	model, err := fullBasis(x)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "block data: %d blocks x %d points\n", shape.M, shape.N)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "component\teigenvalue\tscore std\tscore range\tshare of variance")
	comps := []int{1, 2, 30}
	total := model.TotalVar
	for _, c := range comps {
		if c > shape.M {
			continue
		}
		y := model.Transform(x, c)
		col := y.Col(c-1, nil)
		bp := stats.Summarize(col)
		lam := model.Eigenvalues[c-1]
		fmt.Fprintf(tw, "%d\t%.4g\t%.4g\t[%.4g, %.4g]\t%.4f\n",
			c, lam, math.Sqrt(lam), bp.Min, bp.Max, lam/total)
	}
	return tw.Flush()
}

// Fig3 sweeps the number of selected features for DCT (cumulative ECR) and
// PCA (cumulative TVE), and the PSNR each achieves when only those
// features are kept.
func Fig3(cfg Config) error {
	cfg = cfg.withDefaults()
	f, err := load("FLDSC", cfg)
	if err != nil {
		return err
	}
	blocks, shape, err := dctBlocks(f.Data, f.Dims, cfg.Workers)
	if err != nil {
		return err
	}
	coeff := blocks.Data()
	ecr := stats.ECRCurve(coeff)

	x := blocks.T()
	model, err := fullBasis(x)
	if err != nil {
		return err
	}
	tve := model.TVECurve()

	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "features kept\tDCT cum. ECR\tDCT PSNR(dB)\tPCA cum. TVE\tPCA PSNR(dB)")
	for _, frac := range []float64{0.01, 0.05, 0.10, 0.20, 0.35, 0.50} {
		// DCT: keep the top fraction of all coefficients by magnitude.
		kC := int(frac * float64(len(coeff)))
		if kC < 1 {
			kC = 1
		}
		dctRecon := keepTopCoefficients(blocks, kC, shape, cfg.Workers, len(f.Data))
		dctPSNR := stats.PSNR(f.Data, dctRecon)

		// PCA: keep the top fraction of components.
		kP := int(frac * float64(shape.M))
		if kP < 1 {
			kP = 1
		}
		pcaRecon := pcaReconstruct(model, x, kP, shape, cfg.Workers, len(f.Data))
		pcaPSNR := stats.PSNR(f.Data, pcaRecon)

		fmt.Fprintf(tw, "%.0f%%\t%.4f\t%.2f\t%.4f\t%.2f\n",
			100*frac, ecr[kC-1], dctPSNR, tve[kP-1], pcaPSNR)
	}
	return tw.Flush()
}

// keepTopCoefficients zeroes all but the k largest-magnitude DCT
// coefficients and inverts the transform.
func keepTopCoefficients(blocks *mat.Dense, k int, shape blockio.Shape, workers, origLen int) []float64 {
	coeff := blocks.Data()
	thresh := magnitudeThreshold(coeff, k)
	kept := mat.NewDense(shape.M, shape.N)
	for i, v := range coeff {
		if math.Abs(v) >= thresh {
			kept.Data()[i] = v
		}
	}
	transform.InverseRows(kept.Data(), shape.M, shape.N, workers)
	out, _ := blockio.Recompose(kept, origLen)
	return out
}

// magnitudeThreshold returns the magnitude of the k-th largest |value|.
func magnitudeThreshold(x []float64, k int) float64 {
	if k >= len(x) {
		return 0
	}
	mags := make([]float64, len(x))
	for i, v := range x {
		mags[i] = math.Abs(v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
	return mags[k-1]
}

// pcaReconstruct reconstructs the data from the top-k PCA components of
// the DCT block data.
func pcaReconstruct(model *pca.Model, x *mat.Dense, k int, shape blockio.Shape, workers, origLen int) []float64 {
	xhat := model.Reconstruct(x, k)
	blocks := xhat.T()
	transform.InverseRows(blocks.Data(), shape.M, shape.N, workers)
	out, _ := blockio.Recompose(blocks, origLen)
	return out
}

// Fig4 compares four transform combinations at a fixed 5x feature
// reduction (keep 20% of features): DCT alone, PCA alone, DCT applied to
// PCA components, and PCA applied to DCT coefficients. The paper's finding
// — PCA-on-DCT introduces the least error, DCT-on-PCA the most — is the
// motivation for DPZ's stage ordering.
func Fig4(cfg Config) error {
	cfg = cfg.withDefaults()
	f, err := load("FLDSC", cfg)
	if err != nil {
		return err
	}
	shape, err := blockio.ShapeFor(f.Dims, 0)
	if err != nil {
		return err
	}
	rawBlocks, err := blockio.Decompose(f.Data, shape)
	if err != nil {
		return err
	}
	const keep = 0.20
	kComp := int(keep * float64(shape.M))
	if kComp < 1 {
		kComp = 1
	}
	kCoef := int(keep * float64(len(f.Data)))
	if kCoef < 1 {
		kCoef = 1
	}

	type combo struct {
		name  string
		recon []float64
	}
	var combos []combo

	// (a) DCT only: keep top 20% coefficients.
	dctB := rawBlocks.Clone()
	transform.ForwardRows(dctB.Data(), shape.M, shape.N, cfg.Workers)
	combos = append(combos, combo{"DCT only", keepTopCoefficients(dctB, kCoef, shape, cfg.Workers, len(f.Data))})

	// (b) PCA only: PCA on raw block data, keep 20% of components.
	xRaw := rawBlocks.T()
	mRaw, err := fullBasis(xRaw)
	if err != nil {
		return err
	}
	xhat := mRaw.Reconstruct(xRaw, kComp)
	rb := xhat.T()
	out, _ := blockio.Recompose(rb, len(f.Data))
	combos = append(combos, combo{"PCA only", out})

	// (c) DCT on PCA components: the PCA basis is fixed by the original-
	// domain data, and the DCT stage moves the data into a different
	// domain where that basis no longer aligns with the variance
	// directions ("the fixed set of eigenvectors obtained from the
	// original data in PCA could not approximate data well in the other
	// domain", Section III-B2). Project the DCT-domain samples onto the
	// original-domain eigenvectors, keep 20% of components, invert.
	xDct := dctB.T()
	dctMeans := colMeans(xDct)
	centered := subMeans(xDct, dctMeans)
	dRaw := mRaw.ProjectionMatrix(kComp)
	scoresMis := mat.Mul(centered, dRaw)   // N×k in the mismatched basis
	reconC := mat.Mul(scoresMis, dRaw.T()) // back, still centered
	addMeans(reconC, dctMeans)             // N×M DCT-domain estimate
	rb2 := reconC.T()                      // M×N coefficient blocks
	transform.InverseRows(rb2.Data(), shape.M, shape.N, cfg.Workers)
	out2, _ := blockio.Recompose(rb2, len(f.Data))
	combos = append(combos, combo{"DCT on PCA", out2})

	// (d) PCA on DCT coefficients: DPZ's ordering — the basis is derived
	// in the same (DCT) domain it selects in.
	mDct, err := fullBasis(xDct)
	if err != nil {
		return err
	}
	combos = append(combos, combo{"PCA on DCT", pcaReconstruct(mDct, xDct, kComp, shape, cfg.Workers, len(f.Data))})

	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "combination\tmean abs err\tmax abs err\tPSNR(dB)")
	for _, c := range combos {
		var meanErr float64
		for i := range f.Data {
			meanErr += math.Abs(f.Data[i] - c.recon[i])
		}
		meanErr /= float64(len(f.Data))
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.2f\n", c.name, meanErr,
			stats.MaxAbsError(f.Data, c.recon), stats.PSNR(f.Data, c.recon))
	}
	return tw.Flush()
}

// colMeans returns the per-column means of x.
func colMeans(x *mat.Dense) []float64 { return mat.ColMeans(x) }

// subMeans returns x with means subtracted per column (new matrix).
func subMeans(x *mat.Dense, means []float64) *mat.Dense {
	r, c := x.Dims()
	out := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		src := x.Row(i)
		dst := out.Row(i)
		for j := 0; j < c; j++ {
			dst[j] = src[j] - means[j]
		}
	}
	return out
}

// addMeans adds means per column in place.
func addMeans(x *mat.Dense, means []float64) {
	r, c := x.Dims()
	for i := 0; i < r; i++ {
		row := x.Row(i)
		for j := 0; j < c; j++ {
			row[j] += means[j]
		}
	}
}

// fullBasis fits every principal component of x. Keeping all M vectors
// sends the exact fit down the accumulation route, so the basis carries
// the full dense decomposition's bits.
func fullBasis(x *mat.Dense) (*pca.Model, error) {
	m, _, err := pca.FitExact(x, pca.Selection{Knee: func(curve []float64) int { return len(curve) }}, pca.Options{}, nil)
	return m, err
}
