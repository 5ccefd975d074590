package eigen

import (
	"dpz/internal/mat"
	"dpz/internal/parallel"
	"dpz/internal/scratch"
)

// This file is the accumulation route's eigenvectors, split across
// workers without changing a bit. Both O(n³) phases have an independent
// axis: accumulating Q = P_{n-1}···P_1 updates each column of Q on its
// own, and a QL rotation mixes two columns of Q the same way in every
// row. Each worker therefore owns one private, contiguous stripe of
// columns for the accumulation and then one of rows for the replay.
// Replay stripes carved out of shared rows instead ran no faster on two
// workers than on one (docs/PERFORMANCE.md §15).

// accumulatedVectors finishes a reduction the way SymEig does. z holds
// the reflectors reduce left (scalars in h), d and e the
// tridiagonal. Q is accumulated from the reflectors into q (n·n floats,
// dead on return, so the caller can reuse it for the result) and every
// QL rotation of the tridiagonal is applied to it, in min(workers, n)
// stripes, one per worker (workers ≥ 1). On return d holds the unsorted
// eigenvalues, e is scratch, and z holds the eigenvectors in row
// stripes: with r0, r1 = rows[w], rows[w+1], z[r0·n : r1·n] is an
// n×(r1−r0) block whose row j holds components r0..r1−1 of eigenvector
// j. Every bit is that of the serial textbook loops, for any worker
// count.
func accumulatedVectors(z, h, d, e, q []float64, workers int) (rows []int, err error) {
	n := len(d)
	workers = min(workers, n)

	// Accumulate: stripe w builds columns cols[w]..cols[w+1]−1 of Q as
	// contiguous rows of q, reading z and writing only its own stripe.
	cols := columnStripes(n, workers)
	parallel.For(workers, workers, func(w int) {
		accumulateStripe(z, h, q, n, cols[w], cols[w+1])
	})

	// Replay: the reflectors are spent, so z takes the row stripes of Qᵀ
	// (row i of stripe w is Q[r0:r1][i]); each rotation updates two
	// contiguous rows of every stripe.
	rows = rowStripes(n, workers)
	if err := replayRotations(d, e, z, q, rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// replayRotations packs the row stripes of Qᵀ out of the accumulated q
// (row j = column j of Q) into z and applies every rotation of the QL
// iteration on the tridiagonal (d, e) to them, one worker per stripe.
// Each worker regenerates the rotations with the values-only recurrence
// on its own copy of d and e and applies each to its stripe as it is
// made, so the sequence is never stored and the workers never wait for
// one another; the recurrence is deterministic, so every copy yields the
// same rotations. Stripe 0's worker iterates on d and e themselves and
// leaves the eigenvalues in d.
func replayRotations(d, e, z, q []float64, rows []int) error {
	n, workers := len(d), len(rows)-1
	de := scratch.Floats(2 * n * (workers - 1))
	defer scratch.PutFloats(de)
	for w := 1; w < workers; w++ {
		copy(de[2*n*(w-1):], d)
		copy(de[2*n*(w-1)+n:], e)
	}
	var err error
	parallel.For(workers, workers, func(w int) {
		r0, r1 := rows[w], rows[w+1]
		st, wr := z[r0*n:r1*n], r1-r0
		for i := 0; i < n; i++ {
			copy(st[i*wr:(i+1)*wr], q[i*n+r0:i*n+r1])
		}
		dw, ew := d, e
		if w > 0 {
			dw, ew = de[2*n*(w-1):][:n], de[2*n*(w-1)+n:][:n]
		}
		werr := tqli(dw, ew, func(i int, s, c float64) { rotateRows(st, wr, i, s, c) })
		if w == 0 {
			err = werr // every worker meets the same outcome
		}
	})
	return err
}

// columnStripes splits Q's n columns into w contiguous ranges of about
// equal accumulation work. Reflector i updates the leading i entries of
// every column j < i, so column j costs Σ_{i>j} i, which falls as
// n² − j²: the leading stripes are the narrowest.
func columnStripes(n, w int) []int {
	work := func(j int) int64 { // Σ_{i=j+1}^{n−1} i
		return int64(n-1)*int64(n)/2 - int64(j)*int64(j+1)/2
	}
	var total int64
	for j := 0; j < n; j++ {
		total += work(j)
	}
	bounds := make([]int, w+1)
	var cum int64
	j := 0
	for s := 1; s < w; s++ {
		target := total * int64(s) / int64(w)
		for j < n && cum+work(j)/2 < target {
			cum += work(j)
			j++
		}
		bounds[s] = j
	}
	bounds[w] = n
	return bounds
}

// rowStripes splits n rows into w contiguous ranges of equal size (to
// within one row); every rotation costs the same on each row.
func rowStripes(n, w int) []int {
	bounds := make([]int, w+1)
	for s := range bounds {
		bounds[s] = s * n / w
	}
	return bounds
}

// accumulateStripe builds columns c0..c1−1 of Q = P_{n-1}···P_1 into rows
// 0..c1−c0−1 of the packed stripe q[c0·n : c1·n]. Column j starts as the
// identity column e_j and is untouched by the reflectors i ≤ j; reflector
// i (row i of z left of the diagonal holds u, column i above it u/H)
// maps the leading i entries x of each column j < i to x − (u·x)·(u/H),
// the textbook accumulation's operations in its order. z is only read.
func accumulateStripe(z, h, q []float64, n, c0, c1 int) {
	qs := q[c0*n : c1*n]
	clear(qs)
	for j := c0; j < c1; j++ {
		qs[(j-c0)*n+j] = 1
	}
	v := scratch.Floats(n)
	defer scratch.PutFloats(v)
	for i := c0 + 1; i < n; i++ {
		if h[i] == 0 {
			continue
		}
		vi := v[:i]
		for k := range vi {
			vi[k] = z[k*n+i]
		}
		reflectRows(qs, n, 0, min(c1, i)-c0, z[i*n:i*n+i], vi, 1)
	}
}

// reflectRows updates the leading len(u) entries x of rows lo..hi−1 of the
// row-major buf (row stride n) to x − ((u·x)/div)·v. The dot runs in
// ascending order; rows go four at a time so u and v are read once per
// group, and each row keeps its own accumulator, so the grouping changes
// no bits. With div = 1 the quotient is the dot itself.
func reflectRows(buf []float64, n, lo, hi int, u, v []float64, div float64) {
	m := len(u)
	v = v[:m]
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
		s0, s1, s2, s3 = s0/div, s1/div, s2/div, s3/div
		for k, x := range v {
			w0[k] -= s0 * x
			w1[k] -= s1 * x
			w2[k] -= s2 * x
			w3[k] -= s3 * x
		}
	}
	for ; j < hi; j++ {
		w := buf[j*n:][:m]
		s := mat.Dot(u, w) / div
		for k, x := range v {
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

// gatherVectors copies eigenvectors out of the row stripes
// accumulatedVectors leaves in z into an n×cols matrix backed by
// dst[:n·cols]: its column j is the eigenvector of unsorted eigenvalue
// order[j].
func gatherVectors(dst, z []float64, rows, order []int, cols int) *mat.Dense {
	n := rows[len(rows)-1]
	vecs := mat.NewDenseData(n, cols, dst[:n*cols])
	vd := vecs.Data()
	for newJ, oldJ := range order[:cols] {
		for w := 0; w+1 < len(rows); w++ {
			r0, r1 := rows[w], rows[w+1]
			wr := r1 - r0
			for k, v := range z[r0*n+oldJ*wr : r0*n+(oldJ+1)*wr] {
				vd[(r0+k)*cols+newJ] = v
			}
		}
	}
	return vecs
}
