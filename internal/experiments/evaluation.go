package experiments

import (
	"context"
	"fmt"
	"math"
	"path/filepath"

	"dpz/internal/core"
	"dpz/internal/dataset"
	"dpz/internal/dctz"
	"dpz/internal/knee"
	"dpz/internal/mgard"
	"dpz/internal/stats"
	"dpz/internal/sz"
	"dpz/internal/tthresh"
	"dpz/internal/zfp"
)

// dpzPoint compresses + decompresses with the given params and returns
// (bit-rate, PSNR, CR).
func dpzPoint(f *dataset.Field, p core.Params) (bitrate, psnr, cr float64, err error) {
	c, err := core.Compress(f.Data, f.Dims, p)
	if err != nil {
		return 0, 0, 0, err
	}
	out, _, err := core.Decompress(context.Background(), c.Bytes, p.Workers, 0, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	cr = c.Stats.CRTotal
	return stats.BitRate(cr, 32), stats.PSNR(f.Data, out), cr, nil
}

// Fig6 sweeps the rate-distortion space: DPZ-l and DPZ-s across TVE
// "three-nine" to "eight-nine", SZ across relative error bounds, and ZFP
// across precisions, for every dataset.
func Fig6(cfg Config) error {
	cfg = cfg.withDefaults()
	for _, name := range allDatasets {
		f, err := load(name, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "== %s %v ==\n", name, f.Dims)
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, "compressor\tsetting\tbit-rate\tPSNR(dB)\tCR")

		for _, scheme := range []struct {
			label string
			base  core.Params
		}{{"DPZ-l", core.DPZL()}, {"DPZ-s", core.DPZS()}} {
			for nines := 3; nines <= 8; nines++ {
				p := scheme.base
				p.Workers = cfg.Workers
				p.Selection = core.TVEThreshold
				p.TVE = core.NinesTVE(nines)
				br, psnr, cr, err := dpzPoint(f, p)
				if err != nil {
					return fmt.Errorf("%s %s %d-nine: %w", name, scheme.label, nines, err)
				}
				fmt.Fprintf(tw, "%s\ttve=%d-nine\t%.3f\t%.2f\t%.1f\n", scheme.label, nines, br, psnr, cr)
			}
		}

		for _, eb := range []float64{1e-2, 1e-3, 1e-4, 1e-5} {
			c, err := sz.Compress(f.Data, f.Dims, sz.Params{ErrorBound: eb, Relative: true})
			if err != nil {
				return err
			}
			out, _, err := sz.Decompress(c.Bytes)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "SZ\teb=%.0e\t%.3f\t%.2f\t%.1f\n",
				eb, stats.BitRate(c.Ratio, 32), stats.PSNR(f.Data, out), c.Ratio)
		}

		for _, prec := range []int{8, 12, 16, 20, 24, 28} {
			c, err := zfp.Compress(f.Data, f.Dims, zfp.Params{Mode: zfp.FixedPrecision, Precision: prec})
			if err != nil {
				return err
			}
			out, _, err := zfp.Decompress(c.Bytes)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "ZFP\tprec=%d\t%.3f\t%.2f\t%.1f\n",
				prec, stats.BitRate(c.Ratio, 32), stats.PSNR(f.Data, out), c.Ratio)
		}

		// DCTZ (the paper's predecessor) and an MGARD-like multigrid coder
		// as extra reference series beyond the paper's own comparison.
		for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
			c, err := dctz.Compress(f.Data, f.Dims, dctz.Params{ErrorBound: eb, Relative: true})
			if err != nil {
				return err
			}
			out, _, err := dctz.Decompress(c.Bytes)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "DCTZ\teb=%.0e\t%.3f\t%.2f\t%.1f\n",
				eb, stats.BitRate(c.Ratio, 32), stats.PSNR(f.Data, out), c.Ratio)
		}
		for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
			c, err := mgard.Compress(f.Data, f.Dims, mgard.Params{ErrorBound: eb, Relative: true})
			if err != nil {
				return err
			}
			out, _, err := mgard.Decompress(c.Bytes)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "MGARD\teb=%.0e\t%.3f\t%.2f\t%.1f\n",
				eb, stats.BitRate(c.Ratio, 32), stats.PSNR(f.Data, out), c.Ratio)
		}
		if len(f.Dims) >= 2 {
			for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
				c, err := tthresh.Compress(f.Data, f.Dims, tthresh.Params{RMSE: eb, Relative: true})
				if err != nil {
					return err
				}
				out, _, err := tthresh.Decompress(c.Bytes)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "TTHRESH\trmse=%.0e\t%.3f\t%.2f\t%.1f\n",
					eb, stats.BitRate(c.Ratio, 32), stats.PSNR(f.Data, out), c.Ratio)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Table2 reports knee-point compression: CR, PSNR and mean θ for both
// schemes under 1-D and polynomial curve fitting on the six evaluation
// datasets.
func Table2(cfg Config) error {
	cfg = cfg.withDefaults()
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tscheme\tfit\tk\tCR\tPSNR(dB)\tmean θ")
	for _, name := range evalDatasets {
		f, err := load(name, cfg)
		if err != nil {
			return err
		}
		for _, scheme := range []struct {
			label string
			base  core.Params
		}{{"DPZ-l", core.DPZL()}, {"DPZ-s", core.DPZS()}} {
			for _, fit := range []knee.Fitting{knee.Linear, knee.Poly} {
				p := scheme.base
				p.Workers = cfg.Workers
				p.Selection = core.KneePoint
				p.Fit = fit
				c, err := core.Compress(f.Data, f.Dims, p)
				if err != nil {
					return err
				}
				out, _, err := core.Decompress(context.Background(), c.Bytes, cfg.Workers, 0, nil)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.2f\t%.2f\t%.3g\n",
					name, scheme.label, fit, c.Stats.K, c.Stats.CRTotal,
					stats.PSNR(f.Data, out), stats.MeanRelError(f.Data, out))
			}
		}
	}
	return tw.Flush()
}

// breakdownTVEs are the Table III/IV sweep points: "three-nine",
// "five-nine", "seven-nine".
var breakdownTVEs = []int{3, 5, 7}

// Table3 breaks the compression ratio into the Stage 1&2, Stage 3 and zlib
// factors across the TVE sweep.
func Table3(cfg Config) error {
	cfg = cfg.withDefaults()
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tscheme\tTVE\tk\tCR stage1&2\tCR stage3\tCR zlib\tCR total")
	for _, name := range evalDatasets {
		f, err := load(name, cfg)
		if err != nil {
			return err
		}
		for _, scheme := range []struct {
			label string
			base  core.Params
		}{{"DPZ-l", core.DPZL()}, {"DPZ-s", core.DPZS()}} {
			for _, nines := range breakdownTVEs {
				p := scheme.base
				p.Workers = cfg.Workers
				p.TVE = core.NinesTVE(nines)
				c, err := core.Compress(f.Data, f.Dims, p)
				if err != nil {
					return err
				}
				s := c.Stats
				fmt.Fprintf(tw, "%s\t%s\t%d-nine\t%d\t%.3f\t%.3f\t%.3f\t%.2f\n",
					name, scheme.label, nines, s.K, s.CRStage12, s.CRStage3, s.CRZlib, s.CRTotal)
			}
		}
	}
	return tw.Flush()
}

// Table4 reports the accuracy loss between Stage 1&2 and the full pipeline
// in ΔPSNR (dB) across the same sweep.
func Table4(cfg Config) error {
	cfg = cfg.withDefaults()
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tscheme\tTVE\tstage1&2 PSNR\tfinal PSNR\tΔPSNR(dB)")
	for _, name := range evalDatasets {
		f, err := load(name, cfg)
		if err != nil {
			return err
		}
		for _, scheme := range []struct {
			label string
			base  core.Params
		}{{"DPZ-l", core.DPZL()}, {"DPZ-s", core.DPZS()}} {
			for _, nines := range breakdownTVEs {
				p := scheme.base
				p.Workers = cfg.Workers
				p.TVE = core.NinesTVE(nines)
				p.CollectDiagnostics = true
				c, err := core.Compress(f.Data, f.Dims, p)
				if err != nil {
					return err
				}
				s := c.Stats
				delta := s.Stage12PSNR - s.FinalPSNR
				if math.IsInf(s.Stage12PSNR, 0) || math.IsInf(s.FinalPSNR, 0) {
					delta = 0
				}
				fmt.Fprintf(tw, "%s\t%s\t%d-nine\t%.2f\t%.2f\t%.3f\n",
					name, scheme.label, nines, s.Stage12PSNR, s.FinalPSNR, delta)
			}
		}
	}
	return tw.Flush()
}

// Fig7 reproduces the visualization experiment: CLDHGH compressed by DPZ,
// SZ and ZFP at two operating points (matched CR around 10x, then matched
// low PSNR around 26 dB), with optional PGM renderings of each result.
func Fig7(cfg Config) error {
	cfg = cfg.withDefaults()
	f, err := load("CLDHGH", cfg)
	if err != nil {
		return err
	}
	write := func(name string, data []float64) error {
		if cfg.ArtifactDir == "" {
			return nil
		}
		img := &dataset.Field{Name: name, Dims: f.Dims, Data: data}
		return dataset.WritePGM(img, filepath.Join(cfg.ArtifactDir, name+".pgm"))
	}
	if err := write("cldhgh_original", f.Data); err != nil {
		return err
	}

	ssim := func(recon []float64) float64 {
		return stats.SSIM(f.Data, recon, f.Dims[0], f.Dims[1])
	}
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "point\tcompressor\tCR\tPSNR(dB)\tSSIM")

	// Point 1: medium CR (DPZ at five-nine, SZ/ZFP tuned near the same CR).
	p := core.DPZS()
	p.Workers = cfg.Workers
	p.TVE = core.NinesTVE(5)
	c, err := core.Compress(f.Data, f.Dims, p)
	if err != nil {
		return err
	}
	outDPZ, _, err := core.Decompress(context.Background(), c.Bytes, cfg.Workers, 0, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "CR-matched\tDPZ-s\t%.1f\t%.2f\t%.3f\n", c.Stats.CRTotal, stats.PSNR(f.Data, outDPZ), ssim(outDPZ))
	if err := write("cldhgh_dpz_cr", outDPZ); err != nil {
		return err
	}

	szC, err := sz.Compress(f.Data, f.Dims, sz.Params{ErrorBound: 1e-3, Relative: true})
	if err != nil {
		return err
	}
	outSZ, _, err := sz.Decompress(szC.Bytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "CR-matched\tSZ\t%.1f\t%.2f\t%.3f\n", szC.Ratio, stats.PSNR(f.Data, outSZ), ssim(outSZ))
	if err := write("cldhgh_sz_cr", outSZ); err != nil {
		return err
	}

	zC, err := zfp.Compress(f.Data, f.Dims, zfp.Params{Mode: zfp.FixedPrecision, Precision: 14})
	if err != nil {
		return err
	}
	outZ, _, err := zfp.Decompress(zC.Bytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "CR-matched\tZFP\t%.1f\t%.2f\t%.3f\n", zC.Ratio, stats.PSNR(f.Data, outZ), ssim(outZ))
	if err := write("cldhgh_zfp_cr", outZ); err != nil {
		return err
	}

	// Point 2: low-PSNR regime — how much CR does each buy at rough
	// quality.
	p2 := core.DPZL()
	p2.Workers = cfg.Workers
	p2.Selection = core.KneePoint
	c2, err := core.Compress(f.Data, f.Dims, p2)
	if err != nil {
		return err
	}
	outDPZ2, _, err := core.Decompress(context.Background(), c2.Bytes, cfg.Workers, 0, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "low-PSNR\tDPZ-l(knee)\t%.1f\t%.2f\t%.3f\n", c2.Stats.CRTotal, stats.PSNR(f.Data, outDPZ2), ssim(outDPZ2))
	if err := write("cldhgh_dpz_low", outDPZ2); err != nil {
		return err
	}

	szC2, err := sz.Compress(f.Data, f.Dims, sz.Params{ErrorBound: 5e-2, Relative: true})
	if err != nil {
		return err
	}
	outSZ2, _, err := sz.Decompress(szC2.Bytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "low-PSNR\tSZ\t%.1f\t%.2f\t%.3f\n", szC2.Ratio, stats.PSNR(f.Data, outSZ2), ssim(outSZ2))
	if err := write("cldhgh_sz_low", outSZ2); err != nil {
		return err
	}

	zC2, err := zfp.Compress(f.Data, f.Dims, zfp.Params{Mode: zfp.FixedPrecision, Precision: 6})
	if err != nil {
		return err
	}
	outZ2, _, err := zfp.Decompress(zC2.Bytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "low-PSNR\tZFP\t%.1f\t%.2f\t%.3f\n", zC2.Ratio, stats.PSNR(f.Data, outZ2), ssim(outZ2))
	if err := write("cldhgh_zfp_low", outZ2); err != nil {
		return err
	}
	return tw.Flush()
}
