package eigen

import "dpz/internal/mat"

// This file holds the two row kernels the eigenvector routes share: the
// Householder reflection of the back-transform and the QL rotation of
// the divide-and-conquer leaves and of the eigenvalue sweep's last-row
// tracking.

// reflectRows updates the leading len(u) entries x of rows lo..hi−1 of the
// row-major buf (row stride n) to x − ((u·x)/h)·u. The dot runs in
// ascending order; rows go four at a time so u is read once per group,
// and each row keeps its own accumulator, so the grouping changes no
// bits.
func reflectRows(buf []float64, n, lo, hi int, u []float64, h float64) {
	m := len(u)
	j := lo
	for ; j+4 <= hi; j += 4 {
		w0 := buf[j*n:][:m]
		w1 := buf[(j+1)*n:][:m]
		w2 := buf[(j+2)*n:][:m]
		w3 := buf[(j+3)*n:][:m]
		var s0, s1, s2, s3 float64
		for k, x := range u {
			s0 += x * w0[k]
			s1 += x * w1[k]
			s2 += x * w2[k]
			s3 += x * w3[k]
		}
		s0, s1, s2, s3 = s0/h, s1/h, s2/h, s3/h
		for k, x := range u {
			w0[k] -= s0 * x
			w1[k] -= s1 * x
			w2[k] -= s2 * x
			w3[k] -= s3 * x
		}
	}
	for ; j < hi; j++ {
		w := buf[j*n:][:m]
		s := mat.Dot(u, w) / h
		for k, x := range u {
			w[k] -= s * x
		}
	}
}

// rotateRows applies QL rotation (i, s, c) to rows i and i+1 (of width
// wr) of the row-major st: each entry pair is loaded once and rotated by
// the textbook expressions, four pairs per step.
func rotateRows(st []float64, wr, i int, s, c float64) {
	zi := st[i*wr : (i+1)*wr]
	zi1 := st[(i+1)*wr : (i+2)*wr][:len(zi)]
	k := 0
	for ; k+4 <= len(zi); k += 4 {
		a := zi[k : k+4 : k+4]
		b := zi1[k : k+4 : k+4]
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		v0, v1, v2, v3 := b[0], b[1], b[2], b[3]
		b[0] = s*x0 + c*v0
		b[1] = s*x1 + c*v1
		b[2] = s*x2 + c*v2
		b[3] = s*x3 + c*v3
		a[0] = c*x0 - s*v0
		a[1] = c*x1 - s*v1
		a[2] = c*x2 - s*v2
		a[3] = c*x3 - s*v3
	}
	for ; k < len(zi); k++ {
		x, v := zi[k], zi1[k]
		zi1[k] = s*x + c*v
		zi[k] = c*x - s*v
	}
}
