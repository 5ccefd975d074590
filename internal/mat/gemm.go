package mat

import (
	"fmt"

	"dpz/internal/parallel"
)

// This file holds the unrolled level-2/level-3 kernels behind the Stage 2
// projection and the decode recompose: a general multiply with an
// explicit worker bound, plus the shared unrolled axpy/dot primitives. Go has no
// SIMD intrinsics, so the kernels follow the scalar half of the SIMD
// playbook instead: 4-wide manual unrolling on the innermost loop with the
// slice re-slice hint that lets the compiler hoist the bounds check out of
// the loop body. Every kernel accumulates each output element over the
// same index sequence regardless of the worker count, so results are
// bit-identical for workers 1..n.

// Axpy computes dst[i] += a*x[i] over len(x) elements, 4-wide unrolled.
// Each dst element receives exactly one update, so the result is bitwise
// identical to the naive loop. dst must be at least as long as x.
func Axpy(dst, x []float64, a float64) {
	dst = dst[:len(x)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		dst[i] += a * x0
		dst[i+1] += a * x1
		dst[i+2] += a * x2
		dst[i+3] += a * x3
	}
	for i := n; i < len(dst); i++ {
		dst[i] += a * x[i]
	}
}

// Dot returns the inner product of x and y, accumulated in ascending index
// order with a single accumulator — the same floating-point sequence as
// the naive loop, so callers that need bit-stable results across kernel
// revisions can rely on it. The slice hint removes the per-element bounds
// check; the multiply sequence itself is kept serial on purpose (a 4-way
// accumulator split would change the rounding).
func Dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// axpy4 computes dst[i] += a0·x0[i] + a1·x1[i] + a2·x2[i] + a3·x3[i] — a
// 4-way jammed axpy that quarters the dst read-modify-write traffic of
// four sequential Axpy sweeps and exposes four independent multiply
// chains to the scheduler. The jam changes the per-element summation
// ORDER versus sequential axpys, so it must only back kernels whose
// rounding is not pinned to the naive loop (the projection and decode
// kernel below; MulInto keeps the order-preserving Axpy).
func axpy4(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	x0 = x0[:n]
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	for i := 0; i < n; i++ {
		dst[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// axpy4x2 is axpy4 for two destination rows over the same four x rows:
// d0 takes coefficients a0..a3 and d1 takes c0..c3. Each destination
// element gets exactly the expression axpy4 computes, so the bits match
// two axpy4 calls, while every x element is loaded once for both rows.
func axpy4x2(d0, d1, x0, x1, x2, x3 []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64) {
	n := len(d0)
	d1 = d1[:n]
	x0 = x0[:n]
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	for i := 0; i < n; i++ {
		v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
		d0[i] += a0*v0 + a1*v1 + a2*v2 + a3*v3
		d1[i] += c0*v0 + c1*v1 + c2*v2 + c3*v3
	}
}

// GemmInto computes out = a·b with an explicit worker bound (0 =
// GOMAXPROCS), row-parallel with the reduction dimension jammed four wide
// (axpy4) and an order-preserving Axpy tail. The worker count never
// changes the result bits: each output row is owned by exactly one worker
// and accumulates over k in the same jammed ascending order. out must be
// a.rows × b.cols and must not alias a or b.
//
// Output rows go in pairs (axpy4x2), so each sweep over b serves two rows:
// once b outgrows the cache, streaming it is the kernel's cost, and the
// pairing halves it. A pair computes each row exactly as a lone row would,
// so how a worker's chunk splits into pairs cannot change a bit.
//
// This is the Stage 2 projection (Y = (X−μ)·D_k, pca.Model.TransformW)
// and the decode recompose (blocks = C·Z over the rank-space rows). Its summation order is fixed
// but intentionally NOT the naive loop's — only code whose rounding is not
// pinned to the naive loop may use it (see axpy4).
func GemmInto(out, a, b *Dense, workers int) {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("mat: GemmInto shape mismatch %dx%d · %dx%d -> %dx%d",
			a.rows, a.cols, b.rows, b.cols, out.rows, out.cols))
	}
	if a.rows*a.cols*b.cols < 1<<16 {
		workers = 1
	}
	kj := a.cols &^ 3
	bc := b.cols
	parallel.ForChunks(a.rows, workers, func(lo, hi int) {
		i := lo
		for ; i+1 < hi; i += 2 {
			o0 := out.data[i*out.cols : (i+1)*out.cols]
			o1 := out.data[(i+1)*out.cols : (i+2)*out.cols]
			for x := range o0 {
				o0[x] = 0
				o1[x] = 0
			}
			r0 := a.data[i*a.cols : (i+1)*a.cols]
			r1 := a.data[(i+1)*a.cols : (i+2)*a.cols]
			for k := 0; k < kj; k += 4 {
				axpy4x2(o0, o1,
					b.data[k*bc:(k+1)*bc],
					b.data[(k+1)*bc:(k+2)*bc],
					b.data[(k+2)*bc:(k+3)*bc],
					b.data[(k+3)*bc:(k+4)*bc],
					r0[k], r0[k+1], r0[k+2], r0[k+3],
					r1[k], r1[k+1], r1[k+2], r1[k+3])
			}
			for k := kj; k < a.cols; k++ {
				Axpy(o0, b.data[k*bc:(k+1)*bc], r0[k])
				Axpy(o1, b.data[k*bc:(k+1)*bc], r1[k])
			}
		}
		if i < hi {
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for x := range orow {
				orow[x] = 0
			}
			arow := a.data[i*a.cols : (i+1)*a.cols]
			for k := 0; k < kj; k += 4 {
				axpy4(orow,
					b.data[k*bc:(k+1)*bc],
					b.data[(k+1)*bc:(k+2)*bc],
					b.data[(k+2)*bc:(k+3)*bc],
					b.data[(k+3)*bc:(k+4)*bc],
					arow[k], arow[k+1], arow[k+2], arow[k+3])
			}
			for k := kj; k < a.cols; k++ {
				Axpy(orow, b.data[k*bc:(k+1)*bc], arow[k])
			}
		}
	})
}
