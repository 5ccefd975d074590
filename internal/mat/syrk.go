package mat

import (
	"fmt"

	"dpz/internal/parallel"
	"dpz/internal/scratch"
)

// SyrK computes the symmetric rank-k update C = AᵀA for the r×c matrix a,
// returning the full (mirrored) c×c Gram matrix. See SyrKInto.
func SyrK(a *Dense, workers int) *Dense {
	out := NewDense(a.cols, a.cols)
	SyrKInto(out, a, workers)
	return out
}

// SyrKInto computes out = AᵀA into the caller's c×c matrix. It transposes
// a into pooled scratch (feature-major: one contiguous row per column of
// a) and runs the register-tiled Gram kernel on it; see gramInto for the
// tiling and the bit-exactness contract.
func SyrKInto(out, a *Dense, workers int) {
	r, c := a.rows, a.cols
	if out.rows != c || out.cols != c {
		panic(fmt.Sprintf("mat: SyrKInto output %dx%d for %d columns", out.rows, out.cols, c))
	}
	buf := scratch.Floats(r * c)
	at := NewDenseData(c, r, buf)
	TransposeInto(at, a)
	gramInto(out, at, workers)
	scratch.PutFloats(buf)
}

// gramInto computes out = F·Fᵀ for the feature-major c×r matrix f (row j
// holds feature j's r samples), so out[j][k] is the dot product of rows j
// and k. This is the Stage 2 covariance kernel.
//
// The upper triangle is swept in 2×2 register tiles: two rows of f
// against two, four accumulators and four loads per sample, instead of
// the read-modify-write of an accumulator row per multiply that an
// axpy-form Gram pays. The lower triangle is mirrored. As for GemmNTInto,
// wider tiles measured slower: a 2×4 tile's eight accumulators and six
// loads spill on amd64 (8.7 vs 6.0 ms for 256 features × 512 samples on
// one core).
//
// Bit-exactness contract: every entry is one accumulator seeded with +0
// and summed over the samples in ascending order — the naive loop's
// sequence — whatever the tile, the edge kernel or the worker count. An
// axpy form that skips exact-zero multipliers (the oracle in
// reference_test.go) agrees bit for bit on finite data: an accumulator
// seeded with +0 never becomes -0, so adding a ±0 product is a no-op.
//
// Workers take whole row pairs. Row pair p costs about c−2p tiles, so
// work item q runs pairs q and last−q: every item then costs about c
// tiles and contiguous chunks of items balance.
func gramInto(out, f *Dense, workers int) {
	c, r := f.rows, f.cols
	pairs := (c + 1) / 2
	if r*c*c < 1<<16 {
		workers = 1
	}
	parallel.For((pairs+1)/2, workers, func(q int) {
		gramRowPair(out, f, 2*q)
		if p := pairs - 1 - q; p != q {
			gramRowPair(out, f, 2*p)
		}
	})
	// Mirror the lower triangle.
	for j := 1; j < c; j++ {
		for k := 0; k < j; k++ {
			out.data[j*c+k] = out.data[k*c+j]
		}
	}
}

// gramRowPair fills rows j and j+1 of out from column j rightwards (a lone
// last row when j+1 == c). Entry (j+1, j) lies below the diagonal; it is
// computed with its mirror's bits and overwritten by the mirror anyway.
func gramRowPair(out, f *Dense, j int) {
	c, r := f.rows, f.cols
	d := f.data
	a0 := d[j*r : (j+1)*r]
	o0 := out.data[j*c : (j+1)*c]
	if j+1 == c {
		o0[j] = Dot(a0, a0)
		return
	}
	a1 := d[(j+1)*r : (j+2)*r]
	o1 := out.data[(j+1)*c : (j+2)*c]
	k := j
	for ; k+2 <= c; k += 2 {
		o0[k], o0[k+1], o1[k], o1[k+1] = dot2x2(a0, a1, d[k*r:(k+1)*r], d[(k+1)*r:(k+2)*r])
	}
	if k < c {
		b := d[k*r : (k+1)*r]
		o0[k], o1[k] = Dot(a0, b), Dot(a1, b)
	}
}

// dot2x2 returns the four dot products of a0 and a1 with b0 and b1, each
// with its own accumulator summed in ascending index order (so each
// equals Dot of its pair bit for bit). All slices must share a0's length.
func dot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	n := len(a0)
	a1, b0, b1 = a1[:n], b0[:n], b1[:n]
	for i, x0 := range a0 {
		x1 := a1[i]
		y0, y1 := b0[i], b1[i]
		s00 += x0 * y0
		s01 += x0 * y1
		s10 += x1 * y0
		s11 += x1 * y1
	}
	return
}
