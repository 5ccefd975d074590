package eigen

import (
	"math"

	"dpz/internal/mat"
	"dpz/internal/scratch"
)

// This file is the Householder reduction to tridiagonal form, blocked
// the way LAPACK's dsytrd/dlatrd reduce the upper triangle (Dongarra,
// Sorensen & Hammarling 1989), read on the row-major lower triangle. A
// panel of reduceBlock reflectors is generated one column at a time: one
// fused pass over the leading triangle forms A·u, and the panel's
// earlier reflectors enter as O(m·nb) corrections instead of as updates
// of the whole triangle. The panel then updates the leading triangle
// once, A ← A − V·Wᵀ − W·Vᵀ, a rank-2nb update (mat.Syr2kLower) that
// reads and writes the triangle once per panel instead of once per
// column (4.1 against 3.0 GFLOP/s at n=900, docs/PERFORMANCE.md §23).

const (
	// reduceBlock is the panel width nb: how many reflectors share one
	// rank-2nb update of the leading triangle.
	reduceBlock = 8
	// reduceTail is the order at and below which the leading block is
	// reduced one reflector per panel, each with its own rank-2 update.
	// Chosen with reduceBlock by measurement at n ∈ {16, 128, 256, 300,
	// 900}, where tails from 8 to 128 came within 3% of each other; 32
	// leaves the small catalog solves (n=16) wholly unblocked
	// (docs/PERFORMANCE.md §23).
	reduceTail = 32
)

// reduce reduces the symmetric n×n row-major matrix a (lower triangle
// read) to tridiagonal form with Householder reflections. On return e
// holds the sub-diagonal (e[0] is zero) and h[i] the scalar H of
// reflector i, P_i = I − u·uᵀ/H, whose vector u is stored in row i of a
// left of the diagonal (zero when step i needed no reflection, H = 0).
// The upper triangle holds u/H by columns, and the diagonal of a is the
// diagonal of the tridiagonal matrix (see tred2Diagonal). The orthogonal
// transform is Q = P_{n-1}···P_1, with QᵀAQ tridiagonal;
// backTransform applies it.
//
// Reflector i is generated as tred2 generates it: row i, scaled by the
// sum of its magnitudes, gives u and H, so a zero row gives H = 0 and an
// exact-zero off-diagonal. The reduction is serial, and the order of
// every operation depends on n alone.
func reduce(a, h, e []float64) {
	n := len(h)
	if n == 0 {
		return
	}
	wbuf := scratch.Floats(min(reduceBlock, n)*n + 2*reduceBlock)
	defer scratch.PutFloats(wbuf)
	coef := wbuf[min(reduceBlock, n)*n:]
	for top := n - 1; top >= 1; {
		b := 1
		if top >= reduceTail {
			b = min(reduceBlock, top)
		}
		lo := top - b + 1
		reducePanel(a, n, h, e, wbuf, coef, top, lo)
		if b > 1 {
			mat.Syr2kLower(a, n, lo, a[lo*n:], wbuf, b)
		} else if h[top] != 0 {
			rank2Lower(a, n, a[top*n:top*n+top], wbuf[:top])
		}
		top = lo - 1
	}
	h[0] = 0
	e[0] = 0
}

// reducePanel generates reflectors top, top−1, …, lo of reduce. On
// entry a's leading (top+1)×(top+1) triangle is up to date with every
// earlier panel. Reflector i's row is first brought up to date with the
// panel's reflectors j > i; A·u is then formed from the panel's starting
// triangle and corrected by them. W's row i−lo (of stride n) receives
// w = A·u/H − (uᵀA·u/2H²)·u, so that P_i·A·P_i = A − u·wᵀ − w·uᵀ on the
// leading i×i block; it is zero for a reflector with H = 0.
func reducePanel(a []float64, n int, h, e, wbuf, coef []float64, top, lo int) {
	for i := top; i >= lo; i-- {
		row := a[i*n : i*n+i+1]
		// The panel's reflectors j > i, as vectors r = j−i−1 of stride n.
		pv, pw, pb := a[(i+1)*n:], wbuf[(i+1-lo)*n:], top-i
		cv, cw := coef[:pb], coef[reduceBlock:][:pb]
		if pb > 0 {
			for r := range cv {
				cv[r], cw[r] = pv[r*n+i], pw[r*n+i]
			}
			mat.SubRank2Row(row, pv, pw, n, cv, cw)
		}
		u, w := row[:i], wbuf[(i-lo)*n:][:i]
		l := i - 1
		var scale float64
		for _, v := range u {
			scale += math.Abs(v)
		}
		if l == 0 || scale == 0 {
			e[i] = u[l]
			h[i] = 0
			clear(w)
			continue
		}
		var hh float64
		for k := range u {
			u[k] /= scale
			hh += u[k] * u[k]
		}
		f := u[l]
		g := math.Sqrt(hh)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		hh -= f * g
		u[l] = f - g
		for k, v := range u {
			a[k*n+i] = v / hh
		}
		symvLower(a, n, u, w)
		if pb > 0 {
			panelDots(u, pv, pw, n, cv, cw)
			mat.SubRank2Row(w, pv, pw, n, cv, cw)
		}
		f = 0
		for k := range w {
			w[k] /= hh
			f += w[k] * u[k]
		}
		hk := f / (hh + hh)
		for k, v := range u {
			w[k] -= hk * v
		}
		h[i] = hh
	}
}

// rank2Lower applies A ← A − u·wᵀ − w·uᵀ to the lower triangle of the
// leading m×m block of the row-major a (row stride n), m = len(u): the
// one-reflector update of the unblocked tail, which is too small to pay
// for mat.Syr2kLower's set-up.
func rank2Lower(a []float64, n int, u, w []float64) {
	for j := range u {
		row := a[j*n : j*n+j+1]
		uj, wj := u[j], w[j]
		uu, ww := u[:len(row)], w[:len(row)]
		for k := range row {
			row[k] -= uj*ww[k] + wj*uu[k]
		}
	}
}

// symvLower sets p = A·u for the symmetric m×m matrix (m = len(u)) whose
// lower triangle is the leading block of the row-major a (row stride n).
// It reads the triangle once: each row's dot with u and its
// contribution to the entries left of its diagonal go in the same loop,
// four rows per sweep. p[j] starts as row j's own sum and then gains the
// column terms of the rows below it, sweep by sweep.
func symvLower(a []float64, n int, u, p []float64) {
	m := len(u)
	p = p[:m]
	j := 0
	for ; j+4 <= m; j += 4 {
		r0 := a[j*n:][:j+1]
		r1 := a[(j+1)*n:][:j+2]
		r2 := a[(j+2)*n:][:j+3]
		r3 := a[(j+3)*n:][:j+4]
		u0, u1, u2, u3 := u[j], u[j+1], u[j+2], u[j+3]
		pp, uu := p[:j], u[:j]
		r0, r1, r2, r3 = r0[:j], r1[:j], r2[:j], r3[:j]
		var s0, s1, s2, s3 float64
		for k, x := range uu {
			a0, a1, a2, a3 := r0[k], r1[k], r2[k], r3[k]
			s0 += a0 * x
			s1 += a1 * x
			s2 += a2 * x
			s3 += a3 * x
			pp[k] += a0*u0 + a1*u1 + a2*u2 + a3*u3
		}
		c1 := a[(j+1)*n+j:][:2]
		c2 := a[(j+2)*n+j:][:3]
		c3 := a[(j+3)*n+j:][:4]
		s0 += a[j*n+j] * u0
		s1 += c1[0]*u0 + c1[1]*u1
		s2 += c2[0]*u0 + c2[1]*u1 + c2[2]*u2
		s3 += c3[0]*u0 + c3[1]*u1 + c3[2]*u2 + c3[3]*u3
		p[j] = s0 + c1[0]*u1 + c2[0]*u2 + c3[0]*u3
		p[j+1] = s1 + c2[1]*u2 + c3[1]*u3
		p[j+2] = s2 + c3[2]*u3
		p[j+3] = s3
	}
	for ; j < m; j++ {
		r := a[j*n:][:j]
		uj := u[j]
		pp := p[:j]
		var s float64
		for k, x := range u[:j] {
			s += r[k] * x
			pp[k] += r[k] * uj
		}
		p[j] = s + a[j*n+j]*uj
	}
}

// panelDots sets dv[r] = v_r·u and dw[r] = w_r·u for r < len(dv), with
// v_r = v[r·ld:] and w_r = w[r·ld:]; u is read once per four pairs.
func panelDots(u, v, w []float64, ld int, dv, dw []float64) {
	m, b := len(u), len(dv)
	dw = dw[:b]
	r := 0
	for ; r+4 <= b; r += 4 {
		v0, v1, v2, v3 := v[r*ld:][:m], v[(r+1)*ld:][:m], v[(r+2)*ld:][:m], v[(r+3)*ld:][:m]
		w0, w1, w2, w3 := w[r*ld:][:m], w[(r+1)*ld:][:m], w[(r+2)*ld:][:m], w[(r+3)*ld:][:m]
		var s0, s1, s2, s3, t0, t1, t2, t3 float64
		for k, x := range u {
			s0 += v0[k] * x
			t0 += w0[k] * x
			s1 += v1[k] * x
			t1 += w1[k] * x
			s2 += v2[k] * x
			t2 += w2[k] * x
			s3 += v3[k] * x
			t3 += w3[k] * x
		}
		dv[r], dv[r+1], dv[r+2], dv[r+3] = s0, s1, s2, s3
		dw[r], dw[r+1], dw[r+2], dw[r+3] = t0, t1, t2, t3
	}
	for ; r < b; r++ {
		dv[r], dw[r] = mat.Dot(v[r*ld:][:m], u), mat.Dot(w[r*ld:][:m], u)
	}
}
