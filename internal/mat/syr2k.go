package mat

import "fmt"

// Syr2kLower applies the symmetric rank-2b update C ← C − V·Wᵀ − W·Vᵀ to
// the lower triangle, diagonal included, of the leading m×m block of the
// row-major c. Vector r of V is v[r·ld : r·ld+m] and vector r of W is
// w[r·ld : r·ld+m], for r < b; c, v and w share the row stride ld, and
// v and w must not overlap the updated triangle. Entry (j, k), k ≤ j,
// becomes c[j][k] − Σ_r (v_r[j]·w_r[k] + w_r[j]·v_r[k]), summed as
// SubRank2Row sums it.
//
// This is the trailing update of a blocked Householder reduction. It
// runs on the caller: split across two workers by rows it ran 1.7×
// faster on its own, but the reduction it serves ran no faster with it
// (docs/PERFORMANCE.md §23).
func Syr2kLower(c []float64, ld, m int, v, w []float64, b int) {
	if m <= 0 || b <= 0 {
		return
	}
	if m > ld || len(c) < (m-1)*ld+m || len(v) < (b-1)*ld+m || len(w) < (b-1)*ld+m {
		panic(fmt.Sprintf("mat: Syr2kLower %dx%d block of rank %d, stride %d, over %d/%d/%d floats", m, m, b, ld, len(c), len(v), len(w)))
	}
	var buf [2 * 64]float64
	cv, cw := buf[:0], buf[64:64]
	if b > 64 {
		cv, cw = make([]float64, 0, b), make([]float64, 0, b)
	}
	cv, cw = cv[:b], cw[:b]
	for j := 0; j < m; j++ {
		for r := range cv {
			cv[r], cw[r] = v[r*ld+j], w[r*ld+j]
		}
		SubRank2Row(c[j*ld:j*ld+j+1], v, w, ld, cv, cw)
	}
}

// SubRank2Row sets x[k] −= Σ_r (cv[r]·w_r[k] + cw[r]·v_r[k]) for
// k < len(x), where v_r = v[r·ld:] and w_r = w[r·ld:] for r < len(cv).
// The pairs go four per sweep over x: each pair's two products are
// summed, the four sums added as a tree, (t0+t1)+(t2+t3), which keeps
// the dependency chain short, and the total subtracted; a last partial
// group goes one pair per sweep. Every entry sees the same sequence, so
// callers that split x cannot change a bit.
func SubRank2Row(x, v, w []float64, ld int, cv, cw []float64) {
	m, b := len(x), len(cv)
	cw = cw[:b]
	r := 0
	for ; r+4 <= b; r += 4 {
		v0, v1, v2, v3 := v[r*ld:][:m], v[(r+1)*ld:][:m], v[(r+2)*ld:][:m], v[(r+3)*ld:][:m]
		w0, w1, w2, w3 := w[r*ld:][:m], w[(r+1)*ld:][:m], w[(r+2)*ld:][:m], w[(r+3)*ld:][:m]
		a0, a1, a2, a3 := cv[r], cv[r+1], cv[r+2], cv[r+3]
		g0, g1, g2, g3 := cw[r], cw[r+1], cw[r+2], cw[r+3]
		for k := range x {
			t0 := a0*w0[k] + g0*v0[k]
			t1 := a1*w1[k] + g1*v1[k]
			t2 := a2*w2[k] + g2*v2[k]
			t3 := a3*w3[k] + g3*v3[k]
			x[k] -= (t0 + t1) + (t2 + t3)
		}
	}
	for ; r < b; r++ {
		vr, wr := v[r*ld:][:m], w[r*ld:][:m]
		a0, g0 := cv[r], cw[r]
		for k := range x {
			x[k] -= a0*wr[k] + g0*vr[k]
		}
	}
}
