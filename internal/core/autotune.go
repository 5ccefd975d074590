package core

import (
	"context"
	"fmt"
	"math"

	"dpz/internal/stats"
)

// TuneForPSNR searches the TVE dial for the loosest setting that meets a
// target reconstruction PSNR, returning the tuned parameters and the
// achieved operating point. It walks the paper's "three-nine" …
// "eight-nine" ladder (Method 2's accuracy dial) with trial compressions,
// preferring the earliest rung that reaches the target — the highest
// compression ratio consistent with the requested fidelity.
//
// The search compresses the given data up to six times; pass a subsampled
// field when tuning petabyte-scale campaigns (the paper's sampling
// philosophy applied to parameter search).
func TuneForPSNR(data []float64, dims []int, targetPSNR float64, base Params) (Params, float64, error) {
	if math.IsNaN(targetPSNR) || math.IsInf(targetPSNR, 0) {
		return base, 0, fmt.Errorf("core: invalid target PSNR %v", targetPSNR)
	}
	if err := base.Validate(); err != nil {
		return base, 0, err
	}
	var (
		bestParams Params
		bestPSNR   = math.Inf(-1)
	)
	for nines := 3; nines <= 8; nines++ {
		p := base
		p.Selection = TVEThreshold
		p.TVE = NinesTVE(nines)
		c, err := Compress(data, dims, p)
		if err != nil {
			return base, 0, err
		}
		out, _, err := Decompress(context.Background(), c.Bytes, p.Workers, 0, nil)
		if err != nil {
			return base, 0, err
		}
		psnr := stats.PSNR(data, out)
		if psnr > bestPSNR {
			bestPSNR = psnr
			bestParams = p
		}
		if psnr >= targetPSNR {
			return p, psnr, nil
		}
	}
	return bestParams, bestPSNR, fmt.Errorf(
		"core: target %.1f dB unreachable with this scheme (best %.1f dB at TVE %.8f); use the strict scheme or a different compressor",
		targetPSNR, bestPSNR, bestParams.TVE)
}
