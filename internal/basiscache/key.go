package basiscache

import "math"

// qNonFinite is the bucket sentinel for statistics that are NaN or ±Inf:
// such tiles only ever match other non-finite tiles.
const qNonFinite = int32(math.MaxInt32)

// quantize maps a summary statistic onto a quarter-octave log2 bucket:
// values whose magnitudes are within ~19% of each other land in the same
// bucket, which is coarse enough to absorb tile-to-tile noise and fine
// enough to keep dissimilar tiles apart. Zero and non-finite values get
// dedicated sentinels, and the sign is carried in the low bit so +x and
// −x never collide.
func quantize(v float64) int32 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return qNonFinite
	}
	if v == 0 {
		return 0
	}
	b := int32(math.Floor(4 * math.Log2(math.Abs(v))))
	// Clamp to keep the shifted encoding well inside int32 (float32
	// magnitudes span roughly 2^±150, i.e. buckets ±600).
	if b > 1<<20 {
		b = 1 << 20
	} else if b < -(1 << 20) {
		b = -(1 << 20)
	}
	code := (b+1<<21)<<1 + 1 // strictly positive, distinct from the sentinels
	if v < 0 {
		code++
	}
	return code
}

// summarize computes the mean, (population) standard deviation and
// half-range of data.
func summarize(data []float64) (mean, std, halfRange float64) {
	if len(data) == 0 {
		return 0, 0, 0
	}
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	mean = sum / float64(len(data))
	var ss float64
	for _, v := range data {
		d := v - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(data)))
	halfRange = (hi - lo) / 2
	return mean, std, halfRange
}

// KeyFor builds the cache key for a tile given as float64 samples.
// dims is the tile's logical shape and opt the option fingerprint; both
// must already encode everything (other than the data) that influences
// the fitted basis.
func KeyFor(dims string, opt uint64, data []float64) Key {
	mean, std, halfRange := summarize(data)
	return Key{
		Dims:   dims,
		Opt:    opt,
		QMean:  quantize(mean),
		QStd:   quantize(std),
		QRange: quantize(halfRange),
	}
}
