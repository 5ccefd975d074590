package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-th percentile (0 < q <= 100) of sorted.
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailGrid lists the percentiles a tail latency may be reported at, from
// the highest down. The serve schedule fixes its sample counts, so the
// percentile it picks does not move between runs.
var tailGrid = []float64{99.9, 99, 95, 90, 50}

// closedLoopTail is the only tail percentile of a closed loop. Its sample
// count grows with the program's speed, so a percentile picked by count
// would change with it, and a slower program could report a lower tail.
var closedLoopTail = []float64{90}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tail returns the highest percentile in grid with at least tailSamples
// samples beyond it, the percentile used, and the sample count. With too
// few samples for any of them it returns p90 by nearest rank, which is
// the maximum below 10 samples.
func tail(xs, grid []float64) (value, pct float64, n int) {
	s := sortedCopy(xs)
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	for _, q := range grid {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if n-rank >= tailSamples {
			return percentile(s, q), q, n
		}
	}
	return percentile(s, 90), 90, n
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// psnr is the peak signal-to-noise ratio in dB for a value range and a
// mean squared error.
func psnr(valueRange, mse float64) float64 {
	if mse == 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(valueRange) - 10*math.Log10(mse)
}
