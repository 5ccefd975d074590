// Command dpz compresses and decompresses raw little-endian float32 files
// (the SDRBench layout) with the DPZ algorithm.
//
// Usage:
//
//	dpz -z -dims 1800x3600 -scheme strict -tve 5 in.f32 out.dpz
//	dpz -d out.dpz recon.f32
//	dpz -estimate -dims 128x128x128 in.f32
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"dpz"
	"dpz/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dpz: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI against args, writing human output to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dpz", flag.ContinueOnError)
	var (
		compress   = fs.Bool("z", false, "compress (requires -dims)")
		decompress = fs.Bool("d", false, "decompress")
		estimate   = fs.Bool("estimate", false, "run the sampling estimate only (requires -dims)")
		dimsStr    = fs.String("dims", "", "input dimensions, e.g. 1800x3600 (slowest first)")
		scheme     = fs.String("scheme", "strict", "quantization scheme: loose (P=1e-3, 1-byte) or strict (P=1e-4, 2-byte)")
		selection  = fs.String("select", "tve", "k selection: tve or knee")
		nines      = fs.Int("tve", 5, "TVE threshold as a count of nines (3..8)")
		fit        = fs.String("fit", "1d", "knee curve fit: 1d or polyn")
		sampling   = fs.Bool("sampling", false, "enable the Algorithm 2 sampling strategy")
		basisReuse = fs.Bool("basis-reuse", false, "reuse PCA bases across similar tiles: accept a basis that passes the TVE guard, else fit cold (tve selection only)")
		workers    = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		zlevel     = fs.Int("zlevel", 0, "zlib add-on level 1-9 (0 = zlib default)")
		verify     = fs.Bool("verify", false, "after -z, decompress and report PSNR/θ")
		bestEffort = fs.Bool("best-effort", false, "with -d, salvage a partial reconstruction from a corrupt stream")
		index      = fs.String("index", "on", "with -z, write the retrieval index section: on or off (off = v2 stream, which v2-era releases also decode)")
		ranks      = fs.Int("ranks", 0, "with -d, decode only the leading N components (progressive preview; 0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()

	opts, err := buildOptions(*scheme, *selection, *nines, *fit, *index, *sampling, *basisReuse, *workers, *zlevel)
	if err != nil {
		return err
	}

	// Ctrl-C / SIGTERM cancels the compression pipeline at its next
	// checkpoint instead of leaving a long run un-interruptible.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *estimate:
		if len(rest) != 1 || *dimsStr == "" {
			return fmt.Errorf("usage: dpz -estimate -dims AxB file.f32")
		}
		dims, err := parseDims(*dimsStr)
		if err != nil {
			return err
		}
		field, err := dataset.ReadRawFloat32(rest[0], dims)
		if err != nil {
			return err
		}
		est, err := dpz.EstimateCompressionFloat64(field.Data, dims, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "estimated k:        %d\n", est.Ke)
		fmt.Fprintf(out, "mean VIF:           %.2f (low linearity: %v)\n", est.MeanVIF, est.LowLinearity)
		fmt.Fprintf(out, "predicted CR range: %.1fx .. %.1fx\n", est.CRLow, est.CRHigh)

	case *compress:
		if len(rest) != 2 || *dimsStr == "" {
			return fmt.Errorf("usage: dpz -z -dims AxB in.f32 out.dpz")
		}
		dims, err := parseDims(*dimsStr)
		if err != nil {
			return err
		}
		field, err := dataset.ReadRawFloat32(rest[0], dims)
		if err != nil {
			return err
		}
		res, err := dpz.CompressFloat64Context(ctx, field.Data, dims, opts)
		if err != nil {
			return err
		}
		if err := os.WriteFile(rest[1], res.Data, 0o644); err != nil {
			return err
		}
		s := res.Stats
		fmt.Fprintf(out, "compressed %d values: %d -> %d bytes (CR %.2fx, bit-rate %.3f)\n",
			len(field.Data), s.OrigBytes, s.CompressedBytes, s.CRTotal, dpz.BitRate(s.CRTotal, 32))
		fmt.Fprintf(out, "blocks %dx%d, k=%d, TVE=%.8f, stage CRs: %.2f / %.2f / %.2f\n",
			s.Blocks, s.BlockLen, s.K, s.TVEAchieved, s.CRStage12, s.CRStage3, s.CRZlib)
		if *verify {
			recon, _, err := dpz.DecompressFloat64(res.Data)
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			fmt.Fprintf(out, "verify: PSNR %.2f dB, mean θ %.3g, max abs err %.3g\n",
				dpz.PSNR(field.Data, recon),
				dpz.MeanRelativeError(field.Data, recon),
				dpz.MaxAbsError(field.Data, recon))
		}

	case *decompress:
		if len(rest) != 2 {
			return fmt.Errorf("usage: dpz -d [-best-effort] in.dpz out.f32")
		}
		buf, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		var (
			data []float64
			dims []int
		)
		if *ranks > 0 {
			var used int
			data, dims, used, err = dpz.DecompressRanksFloat64(buf, *ranks)
			if err == nil {
				fmt.Fprintf(out, "preview: decoded the leading %d components\n", used)
			}
		} else if *bestEffort {
			data, dims, err = dpz.DecompressBestEffortFloat64(buf)
			var ce *dpz.CorruptionError
			if errors.As(err, &ce) && data != nil {
				fmt.Fprintf(out, "stream corrupt (%v); salvaged %d of %d components\n",
					ce, ce.RecoveredRank, ce.StoredRank)
				err = nil
			}
		} else {
			data, dims, err = dpz.DecompressFloat64Context(ctx, buf, opts.Workers)
		}
		if err != nil {
			return err
		}
		field := &dataset.Field{Name: rest[1], Dims: dims, Data: data}
		if err := dataset.WriteRawFloat32(field, rest[1]); err != nil {
			return err
		}
		fmt.Fprintf(out, "decompressed %d values, dims %v -> %s\n", len(data), dims, rest[1])

	default:
		return fmt.Errorf("one of -z, -d, -estimate is required")
	}
	return nil
}

// buildOptions resolves the CLI knobs through dpz.OptionSpec — the same
// translation the dpzd server uses, which is what keeps `dpz -z` output
// byte-identical to a /v1/compress response for the same settings. The
// explicit nines check preserves the CLI's rejection of -tve 0 (the spec
// treats 0 as "default").
func buildOptions(scheme, selection string, nines int, fit, index string, sampling, basisReuse bool, workers, zlevel int) (dpz.Options, error) {
	if nines == 0 {
		return dpz.Options{}, fmt.Errorf("tve nines 0 out of range")
	}
	return dpz.OptionSpec{
		Scheme:     scheme,
		Select:     selection,
		TVENines:   nines,
		Fit:        fit,
		Sampling:   sampling,
		Workers:    workers,
		ZLevel:     zlevel,
		BasisReuse: basisReuse,
		Index:      index,
	}.Options()
}

func parseDims(s string) ([]int, error) { return dpz.ParseDims(s) }
