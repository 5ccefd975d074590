package experiments

import (
	"context"
	"fmt"
	"time"

	"dpz/internal/core"
	"dpz/internal/stats"
	"dpz/internal/sz"
	"dpz/internal/zfp"
)

// Fig8 measures compression and decompression time against compression
// ratio for DPZ, SZ and ZFP on the Isotropic dataset (the paper's Figure 8
// workload). The expected shape: DPZ is slower to compress than SZ/ZFP
// (PCA dominates) but competitive to decompress at high CR.
func Fig8(cfg Config) error {
	cfg = cfg.withDefaults()
	f, err := load("Isotropic", cfg)
	if err != nil {
		return err
	}
	mb := float64(4*f.Len()) / (1 << 20)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "compressor\tsetting\tCR\tcomp(MB/s)\tdecomp(MB/s)\tPSNR(dB)")

	for _, nines := range []int{3, 5, 7} {
		p := core.DPZS()
		p.Workers = cfg.Workers
		p.TVE = core.NinesTVE(nines)
		t0 := time.Now()
		c, err := core.Compress(f.Data, f.Dims, p)
		if err != nil {
			return err
		}
		ct := time.Since(t0)
		t0 = time.Now()
		out, _, err := core.Decompress(context.Background(), c.Bytes, cfg.Workers, 0, nil)
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		fmt.Fprintf(tw, "DPZ-s\ttve=%d-nine\t%.1f\t%.2f\t%.2f\t%.2f\n",
			nines, c.Stats.CRTotal, mb/ct.Seconds(), mb/dt.Seconds(), stats.PSNR(f.Data, out))
	}

	for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
		t0 := time.Now()
		c, err := sz.Compress(f.Data, f.Dims, sz.Params{ErrorBound: eb, Relative: true})
		if err != nil {
			return err
		}
		ct := time.Since(t0)
		t0 = time.Now()
		out, _, err := sz.Decompress(c.Bytes)
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		fmt.Fprintf(tw, "SZ\teb=%.0e\t%.1f\t%.2f\t%.2f\t%.2f\n",
			eb, c.Ratio, mb/ct.Seconds(), mb/dt.Seconds(), stats.PSNR(f.Data, out))
	}

	for _, prec := range []int{10, 16, 24} {
		t0 := time.Now()
		c, err := zfp.Compress(f.Data, f.Dims, zfp.Params{Mode: zfp.FixedPrecision, Precision: prec})
		if err != nil {
			return err
		}
		ct := time.Since(t0)
		t0 = time.Now()
		out, _, err := zfp.Decompress(c.Bytes)
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		fmt.Fprintf(tw, "ZFP\tprec=%d\t%.1f\t%.2f\t%.2f\t%.2f\n",
			prec, c.Ratio, mb/ct.Seconds(), mb/dt.Seconds(), stats.PSNR(f.Data, out))
	}
	return tw.Flush()
}

// Fig9 breaks DPZ's compression time into its stages across the evaluation
// datasets; the paper's observation is that Stage 2 (PCA) and Stage 3
// (quantization) dominate. It also reports the sampling strategy's
// end-to-end speedup (the paper measures 1.23x on average).
func Fig9(cfg Config) error {
	cfg = cfg.withDefaults()
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tdecompose\tDCT\tPCA(stage2)\tquant(stage3)\tzlib\ttotal\tsampling speedup")
	for _, name := range evalDatasets {
		f, err := load(name, cfg)
		if err != nil {
			return err
		}
		p := core.DPZS()
		p.Workers = cfg.Workers
		p.TVE = core.NinesTVE(5)
		c, err := core.Compress(f.Data, f.Dims, p)
		if err != nil {
			return err
		}
		ps := p
		ps.UseSampling = true
		cs, err := core.Compress(f.Data, f.Dims, ps)
		if err != nil {
			return err
		}
		s := c.Stats.Trace.ByName()
		speedup := s["total"].Seconds() / cs.Stats.Trace.ByName()["total"].Seconds()
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%v\t%v\t%.2fx\n",
			name, round(s["decompose"]), round(s["dct"]), round(s["pca"]),
			round(s["quant"]), round(s["zlib"]), round(s["total"]), speedup)
	}
	return tw.Flush()
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
