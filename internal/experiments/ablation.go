package experiments

import (
	"fmt"
	"time"

	"dpz/internal/core"
	"dpz/internal/dataset"
	"dpz/internal/stats"
)

// Ablation exercises the design choices DESIGN.md calls out, beyond what
// the paper itself evaluated:
//
//  1. DCT stage on/off — the multi-stage claim (Section III-B);
//  2. block count M — "the larger the M, the higher the compression";
//  3. trailing DCT-coefficient truncation before PCA (future work);
//  4. projection-matrix storage: error-budgeted bit packing vs raw float32;
//  5. standardization on low-linearity data;
//  6. a non-linearly correlated dataset (future work), where linear PCA
//     is expected to underperform.
func Ablation(cfg Config) error {
	cfg = cfg.withDefaults()
	f, err := load("FLDSC", cfg)
	if err != nil {
		return err
	}
	base := core.DPZS()
	base.Workers = cfg.Workers
	base.TVE = core.NinesTVE(5)

	run := func(label string, fd *dataset.Field, p core.Params, tw interface {
		Write([]byte) (int, error)
	}) error {
		c, err := core.Compress(fd.Data, fd.Dims, p)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		out, _, err := core.Decompress(c.Bytes, cfg.Workers)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\n",
			label, c.Stats.K, c.Stats.CRStage12, c.Stats.CRTotal, stats.PSNR(fd.Data, out))
		return nil
	}

	// 1 + 3: transform variants.
	fmt.Fprintln(cfg.Out, "-- transform stage (FLDSC, DPZ-s, five-nine) --")
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "variant\tk\tCR stage1&2\tCR total\tPSNR(dB)")
	if err := run("PCA on DCT (DPZ)", f, base, tw); err != nil {
		return err
	}
	noDCT := base
	noDCT.SkipDCT = true
	if err := run("PCA on raw blocks", f, noDCT, tw); err != nil {
		return err
	}
	twoD := base
	twoD.DCT2D = true
	if err := run("PCA on 2-D DCT", f, twoD, tw); err != nil {
		return err
	}
	wav := base
	wav.UseWavelet = true
	if err := run("PCA on Haar wavelet", f, wav, tw); err != nil {
		return err
	}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		tr := base
		tr.CoeffTruncate = frac
		if err := run(fmt.Sprintf("DCT truncated %.0f%%", 100*frac), f, tr, tw); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// 2: block count.
	fmt.Fprintln(cfg.Out, "-- block count M (FLDSC, DPZ-s, four-nine) --")
	tw = newTable(cfg.Out)
	fmt.Fprintln(tw, "maxM\tk\tCR stage1&2\tCR total\tPSNR(dB)")
	for _, maxM := range []int{16, 32, 64, 0} {
		p := base
		p.TVE = core.NinesTVE(4)
		p.MaxBlocks = maxM
		label := fmt.Sprintf("M<=%d", maxM)
		if maxM == 0 {
			label = "M native"
		}
		if err := run(label, f, p, tw); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// 4: projection storage.
	fmt.Fprintln(cfg.Out, "-- projection-matrix storage (FLDSC, DPZ-s, five-nine) --")
	tw = newTable(cfg.Out)
	fmt.Fprintln(tw, "storage\tk\tCR stage1&2\tCR total\tPSNR(dB)")
	if err := run("bit-packed (default)", f, base, tw); err != nil {
		return err
	}
	rawProj := base
	rawProj.RawProjection = true
	if err := run("raw float32", f, rawProj, tw); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Entropy stage on the Stage 3 index stream.
	fmt.Fprintln(cfg.Out, "-- index entropy coding (FLDSC, DPZ-l, five-nine) --")
	tw = newTable(cfg.Out)
	fmt.Fprintln(tw, "coding	k	CR stage1&2	CR total	PSNR(dB)")
	lbase := core.DPZL()
	lbase.Workers = cfg.Workers
	lbase.TVE = core.NinesTVE(5)
	if err := run("zlib only (paper)", f, lbase, tw); err != nil {
		return err
	}
	hman := lbase
	hman.HuffmanIndices = true
	if err := run("huffman + zlib", f, hman, tw); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// 5: standardization on low-linearity data.
	hv, err := load("HACC-vx", cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "-- standardization (HACC-vx, DPZ-s, three-nine) --")
	tw = newTable(cfg.Out)
	fmt.Fprintln(tw, "mode\tk\tCR stage1&2\tCR total\tPSNR(dB)")
	for _, mode := range []struct {
		label string
		m     core.StandardizeMode
	}{{"auto (VIF)", core.StandardizeAuto}, {"off", core.StandardizeOff}, {"on", core.StandardizeOn}} {
		p := base
		p.TVE = core.NinesTVE(3)
		p.Standardize = mode.m
		if err := run(mode.label, hv, p, tw); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// 6: non-linear correlation stress case.
	rows := scaleRows(cfg)
	nl := dataset.NonLinear(rows, 2*rows, 4001)
	lin := dataset.CESM("FLDSC", rows, 2*rows, 4002)
	fmt.Fprintln(cfg.Out, "-- non-linear correlation (DPZ-s, five-nine) --")
	tw = newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tk\tCR stage1&2\tCR total\tPSNR(dB)")
	if err := run("linear (FLDSC-like)", lin, base, tw); err != nil {
		return err
	}
	if err := run("non-linear latent", nl, base, tw); err != nil {
		return err
	}
	return tw.Flush()
}

func scaleRows(cfg Config) int {
	r := int(1800 * cfg.Scale)
	if r < 64 {
		r = 64
	}
	if r%2 == 1 {
		r++
	}
	return r
}

// Scaling measures compression wall time against the worker count — the
// paper's future-work item "expand the DPZ algorithm to exploit
// parallelism for better scalability", realized here by the block-parallel
// DCT and quantization stages and the worker-split Gram, eigenvectors and
// projection of Stage 2.
func Scaling(cfg Config) error {
	cfg = cfg.withDefaults()
	f, err := load("CLDHGH", cfg)
	if err != nil {
		return err
	}
	base := core.DPZS()
	base.TVE = core.NinesTVE(5)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "workers\tcompress\tdecompress\tspeedup vs 1")
	var t1 time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		p := base
		p.Workers = w
		t0 := time.Now()
		c, err := core.Compress(f.Data, f.Dims, p)
		if err != nil {
			return err
		}
		ct := time.Since(t0)
		t0 = time.Now()
		if _, _, err := core.Decompress(c.Bytes, w); err != nil {
			return err
		}
		dt := time.Since(t0)
		if w == 1 {
			t1 = ct
		}
		fmt.Fprintf(tw, "%d\t%v\t%v\t%.2fx\n", w, ct.Round(10*time.Microsecond),
			dt.Round(10*time.Microsecond), t1.Seconds()/ct.Seconds())
	}
	return tw.Flush()
}
