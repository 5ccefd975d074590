package eigen

import (
	"fmt"
	"math"
	"sort"

	"dpz/internal/mat"
	"dpz/internal/metrics"
	"dpz/internal/parallel"
	"dpz/internal/scratch"
)

// This file is the spectrum-first eigensolve behind DPZ's exact Stage 2:
// all eigenvalues first (cheap), then eigenvectors for only the leading
// ones the caller selects from them. When k ≪ n the vectors come from
// tridiagonal inverse iteration (LAPACK dstein) and a Householder
// back-transform (dormtr), O(n²·k) instead of the O(n³) accumulation —
// the "k-PCA complexity reduction" of the paper's Section IV-D.

const (
	// topKInverseMaxNum/topKInverseMaxDen is the largest fraction of n
	// for which SymEigTopK computes vectors by inverse iteration. Beyond
	// it the accumulation route is cheaper, because reorthogonalizing a
	// long run of clustered eigenvalues grows as n·k². Chosen by
	// measurement on the Stage 2 covariances at n=256 (docs/PERFORMANCE.md
	// §13).
	topKInverseMaxNum, topKInverseMaxDen = 1, 2
	// topKGuardTol bounds each inverse-iteration vector's residual
	// ‖Tw − λw‖₂ (relative to ‖T‖₁) and the pairwise orthogonality error
	// |wᵢᵀwⱼ − δᵢⱼ|. Both measure near 1e-15 on well-formed inputs; a
	// result beyond the bound is discarded for the accumulation route.
	topKGuardTol = 1e-11
	// invMaxIters and invExtraIters are dstein's MAXITS and EXTRA: the
	// iteration budget per vector, and how many more solves follow the
	// first that meets the growth criterion.
	invMaxIters, invExtraIters = 5, 2
	// invOrthoTol (times ‖T‖₁) is dstein's ORTOL: eigenvalues closer than
	// this form a cluster whose vectors are reorthogonalized.
	invOrthoTol = 1e-3
	// signMinLast is the smallest |last component| of a reference
	// eigenvector whose sign a computed vector adopts; below it round-off
	// could decide the sign.
	signMinLast = 1e-8
	// minStripeRows is the fewest rows SymEigTopK hands one worker.
	// Waking a goroutine can cost tens of microseconds on a small
	// virtual machine, more than a narrower stripe saves (measured at
	// n ≤ 64, docs/PERFORMANCE.md §15).
	minStripeRows = 64
	// invStartSeed is the SplitMix64 increment behind the deterministic
	// start vectors; the generator restarts at zero on every solve.
	invStartSeed = 0x9e3779b97f4a7c15
)

// SymEigTopK computes every eigenvalue of the symmetric matrix a and the
// eigenvectors of only the leading ones. count receives all n
// eigenvalues, sorted descending and bit-identical to SymEigValues's, and
// returns how many leading eigenvectors to compute (clamped to [0, n]);
// it must not modify the slice. The returned System holds all n values
// and those count vectors as columns.
//
// Small counts take tridiagonal inverse iteration plus a Householder
// back-transform; each vector then matches SymEig's up to round-off. Its
// sign is SymEig's wherever SymEig's last component is not negligible
// (read off the eigenvalue sweep at O(1) per rotation), so downstream
// output moves only by round-off; elsewhere the largest tridiagonal-basis
// component is positive. The result is guarded on residual and
// orthogonality. When the guard fails, or the count exceeds the
// crossover, the reduction is finished the way SymEig finishes it, and
// the vectors are SymEig's bit for bit. Only the lower triangle of a is
// read; a is not modified.
//
// workers bounds the parallelism of the vector phases (0 = GOMAXPROCS;
// 1 starts no goroutine) and never changes a bit. Each worker gets at
// least minStripeRows rows, so a small matrix runs on one. The reduction
// and the eigenvalue sweep are serial.
//
// tr (nil for none) receives three spans under StageSpan: reduce (the
// Householder reduction), values (the eigenvalue sweep, the sort and
// count) and vectors (inverse iteration and the back-transform, or the
// accumulation and the rotation replay).
func SymEigTopK(a *mat.Dense, count func(values []float64) int, workers int, tr *metrics.Trace) (*System, error) {
	n, _ := a.Dims()
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	workers = max(1, min(workers, n/minStripeRows))
	sys, _, err := symEigTopK(a, count, workers, n*topKInverseMaxNum/topKInverseMaxDen, topKGuardTol, tr)
	return sys, err
}

// StageSpan is the span SymEigTopK's spans are part of in a compress
// trace: the Stage 2 fit's eigensolve.
const StageSpan = "eig"

// symEigTopK is SymEigTopK with the crossover (the largest vector count
// inverse iteration serves) and the guard tolerance as parameters. It
// also reports whether the vectors came from inverse iteration.
func symEigTopK(a *mat.Dense, count func(values []float64) int, workers, maxInverse int, tol float64, tr *metrics.Trace) (sys *System, inverse bool, err error) {
	r, c := a.Dims()
	if r != c {
		return nil, false, fmt.Errorf("eigen: non-square input %dx%d", r, c)
	}
	n := r
	if n == 0 {
		return &System{Values: nil, Vectors: mat.NewDense(0, 0)}, false, nil
	}
	t0 := metrics.Now()
	z := scratch.Floats(n * n)
	defer scratch.PutFloats(z)
	copy(z, a.Data())
	h := scratch.Floats(n) // reflector scalars; the diagonal after accumulation
	defer scratch.PutFloats(h)
	e := scratch.Floats(n)
	defer scratch.PutFloats(e)
	d := scratch.Floats(n)
	defer scratch.PutFloats(d)
	reduce(z, h, e)
	tred2Diagonal(z, d)
	tr.Add("reduce", StageSpan, t0)

	// Eigenvalues first, on copies: d and e stay the tridiagonal. The
	// rotations also carry the last column of the accumulator, which
	// both Q and the tridiagonal basis leave as e_{n-1}: it ends holding
	// the last component of each of SymEig's eigenvectors, whose signs
	// the inverse-iteration vectors then adopt.
	t0 = metrics.Now()
	vals := make([]float64, n)
	copy(vals, d)
	ev := scratch.Floats(n)
	defer scratch.PutFloats(ev)
	copy(ev, e)
	last := scratch.ZeroedFloats(n)
	defer scratch.PutFloats(last)
	last[n-1] = 1
	err = tqli(vals, ev, func(i int, s, c float64) { rotateRows(last, 1, i, s, c) })
	if err != nil {
		tr.Add("values", StageSpan, t0)
		return nil, false, err
	}
	order := descendingOrder(vals)
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	kv := min(max(count(vals), 0), n)
	tr.Add("values", StageSpan, t0)
	t0 = metrics.Now()
	defer func() { tr.Add("vectors", StageSpan, t0) }()
	if kv == 0 {
		return &System{Values: vals, Vectors: mat.NewDense(n, 0)}, false, nil
	}

	if kv <= maxInverse {
		signs := scratch.Floats(kv)
		defer scratch.PutFloats(signs)
		for j := range signs {
			signs[j] = last[order[j]]
		}
		wt := scratch.Floats(kv * n)
		defer scratch.PutFloats(wt)
		if tridiagonalVectors(d, e, vals[:kv], signs, wt, tol) {
			backTransform(z, h, wt, n, kv, workers)
			vecs := mat.NewDense(n, kv)
			vd := vecs.Data()
			for j := 0; j < kv; j++ {
				for i, v := range wt[j*n : (j+1)*n] {
					vd[i*kv+j] = v
				}
			}
			return &System{Values: vals, Vectors: vecs}, true, nil
		}
	}

	// The accumulation route: SymEig's remaining steps on the saved
	// reduction, so the vectors carry SymEig's bits. The replay's
	// eigenvalues in d are the ones already sorted into vals, and the
	// accumulation buffer ends as the returned vectors.
	q := make([]float64, n*n)
	rows, err := accumulatedVectors(z, h, d, e, q, workers)
	if err != nil {
		return nil, false, err
	}
	return &System{Values: vals, Vectors: gatherVectors(q, z, rows, order, kv)}, false, nil
}

// tridiagonalVectors computes, by inverse iteration, the eigenvectors of
// the symmetric tridiagonal matrix with diagonal d and sub-diagonal e
// (e[i] couples i−1 and i) for the descending eigenvalues vals, into the
// rows of the len(vals)×n row-major wt. It reports false when a vector
// fails to converge or the result misses the residual/orthogonality
// guard tol.
//
// The scheme is LAPACK's dstein: each shift is the eigenvalue, nudged
// apart from a (nearly) equal predecessor; (T − xI) is factored once with
// partial pivoting; a deterministic start vector is scaled, solved and
// reorthogonalized against the earlier vectors of its cluster until its
// growth shows convergence, plus invExtraIters more solves.
//
// The sign convention follows signs[j], the last component of the
// reference vector: where it is not negligible (signMinLast) the last
// component takes its sign; otherwise the largest-magnitude entry is
// made positive.
func tridiagonalVectors(d, e, vals, signs, wt []float64, tol float64) bool {
	n := len(d)
	var onenrm float64
	for i := 0; i < n; i++ {
		s := math.Abs(d[i]) + math.Abs(e[i])
		if i+1 < n {
			s += math.Abs(e[i+1])
		}
		onenrm = max(onenrm, s)
	}
	if onenrm == 0 || math.IsNaN(onenrm) || math.IsInf(onenrm, 0) {
		return false
	}
	const eps = 0x1p-52
	ortol := invOrthoTol * onenrm
	growth := math.Sqrt(0.1 / float64(n))
	luBuf := scratch.Floats(4 * n)
	defer scratch.PutFloats(luBuf)
	lu := newTridiagLU(luBuf, n)
	var rng uint64
	var xjm float64
	gpind := 0
	for j, lambda := range vals {
		xj := lambda
		if j > 0 {
			if pertol := 10 * math.Abs(eps*xj); xjm-xj < pertol {
				xj = xjm - pertol
			}
		}
		if j == 0 || math.Abs(xj-xjm) > ortol {
			gpind = j
		}
		y := wt[j*n : (j+1)*n]
		for i := range y {
			rng += invStartSeed
			y[i] = 2*float64(splitmix64(rng)>>11)*0x1p-53 - 1
		}
		lu.factor(d, e, xj)
		unn := max(eps, math.Abs(lu.a[n-1]))
		converged := false
		for its, checks := 0, 0; its < invMaxIters; its++ {
			scale(y, float64(n)*onenrm*unn/math.Abs(y[absMaxIndex(y)]))
			lu.solve(y)
			for i := gpind; i < j; i++ {
				zi := wt[i*n : (i+1)*n]
				mat.Axpy(y, zi, -mat.Dot(y, zi))
			}
			if math.Abs(y[absMaxIndex(y)]) < growth {
				continue
			}
			if checks++; checks > invExtraIters {
				converged = true
				break
			}
		}
		if !converged {
			return false
		}
		scl := 1 / math.Sqrt(mat.Dot(y, y))
		if ref := signs[j]; math.Abs(ref) >= signMinLast {
			if (y[n-1] < 0) != (ref < 0) {
				scl = -scl
			}
		} else if y[absMaxIndex(y)] < 0 {
			scl = -scl
		}
		scale(y, scl)
		xjm = xj
	}
	return tridiagonalGuard(d, e, vals, wt, onenrm, tol)
}

// tridiagonalGuard reports whether every row w of wt has a residual
// ‖Tw − λw‖₂ within tol·‖T‖₁ and every pair of rows is orthonormal
// within tol. NaNs fail it.
func tridiagonalGuard(d, e, vals, wt []float64, onenrm, tol float64) bool {
	n := len(d)
	for j, lambda := range vals {
		w := wt[j*n : (j+1)*n]
		var rr float64
		for i := 0; i < n; i++ {
			r := (d[i] - lambda) * w[i]
			if i > 0 {
				r += e[i] * w[i-1]
			}
			if i+1 < n {
				r += e[i+1] * w[i+1]
			}
			rr += r * r
		}
		if !(math.Sqrt(rr) <= tol*onenrm) {
			return false
		}
		for i := 0; i <= j; i++ {
			g := mat.Dot(wt[i*n:(i+1)*n], w)
			if i == j {
				g--
			}
			if !(math.Abs(g) <= tol) {
				return false
			}
		}
	}
	return true
}

// backTransform maps the tridiagonal eigenvectors in the rows of the
// kv×n wt to eigenvectors of the original matrix, v = Q·w with
// Q = P_{n-1}···P_1, by applying the reflectors reduce left in the
// rows of z (scalars in h) innermost first: each is a dot and an axpy
// over its prefix of every row. The rows are split into contiguous
// groups, one per worker; each row sees the same operations in any
// group, so the bits do not depend on workers.
func backTransform(z, h, wt []float64, n, kv, workers int) {
	parallel.ForChunks(kv, workers, func(lo, hi int) {
		for i := 1; i < n; i++ {
			if h[i] == 0 {
				continue
			}
			u := z[i*n : i*n+i]
			reflectRows(wt, n, lo, hi, u, u, h[i])
		}
	})
}

// tridiagLU is the pivoted LU factorization of T − xI for a symmetric
// tridiagonal T (LAPACK dlagtf) and its perturbed solve (dlagts, job −1).
// U has diagonal a, super-diagonals b and d2; c holds the multipliers and
// swap[k] records a row interchange at step k.
type tridiagLU struct {
	a, b, c, d2 []float64
	swap        []bool
	tol         float64
}

// newTridiagLU lays an order-n factorization out in buf (4n floats).
func newTridiagLU(buf []float64, n int) *tridiagLU {
	return &tridiagLU{
		a: buf[:n], b: buf[n : 2*n], c: buf[2*n : 3*n], d2: buf[3*n : 4*n],
		swap: make([]bool, n),
	}
}

// factor computes the factorization of T − xI, T with diagonal d and
// sub-diagonal e (e[i] couples i−1 and i), choosing at each step the row
// with the relatively larger pivot.
func (lu *tridiagLU) factor(d, e []float64, x float64) {
	n := len(d)
	a, b, c, d2 := lu.a, lu.b, lu.c, lu.d2
	for i := 0; i < n; i++ {
		a[i] = d[i] - x
		d2[i] = 0
	}
	for i := 0; i+1 < n; i++ {
		b[i] = e[i+1]
		c[i] = e[i+1]
	}
	b[n-1], c[n-1] = 0, 0
	for k := 0; k+1 < n; k++ {
		lu.swap[k] = false
		if c[k] == 0 {
			continue
		}
		piv1 := 0.0
		if a[k] != 0 {
			piv1 = math.Abs(a[k]) / (math.Abs(a[k]) + math.Abs(b[k]))
		}
		scale2 := math.Abs(c[k]) + math.Abs(a[k+1])
		if k+2 < n {
			scale2 += math.Abs(b[k+1])
		}
		if math.Abs(c[k])/scale2 <= piv1 {
			c[k] /= a[k]
			a[k+1] -= c[k] * b[k]
			continue
		}
		lu.swap[k] = true
		mult := a[k] / c[k]
		a[k] = c[k]
		t := a[k+1]
		a[k+1] = b[k] - mult*t
		if k+2 < n {
			d2[k] = b[k+1]
			b[k+1] = -mult * d2[k]
		}
		b[k] = t
		c[k] = mult
	}
	var big float64
	for i := 0; i < n; i++ {
		big = max(big, math.Abs(a[i]), math.Abs(b[i]), math.Abs(d2[i]))
	}
	lu.tol = big * 0x1p-52
	if lu.tol == 0 {
		lu.tol = 0x1p-52
	}
}

// solve overwrites y with (T − xI)⁻¹·y. A pivot so small that the
// division would overflow (or zero) is perturbed by a growing multiple
// of the factorization's tolerance, which is what keeps inverse
// iteration at a shift equal to an eigenvalue well defined.
func (lu *tridiagLU) solve(y []float64) {
	n := len(y)
	a, b, c, d2 := lu.a, lu.b, lu.c, lu.d2
	for k := 0; k+1 < n; k++ {
		if lu.swap[k] {
			y[k], y[k+1] = y[k+1], y[k]-c[k]*y[k+1]
		} else {
			y[k+1] -= c[k] * y[k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		t := y[k]
		if k+1 < n {
			t -= b[k] * y[k+1]
		}
		if k+2 < n {
			t -= d2[k] * y[k+2]
		}
		ak := a[k]
		pert := math.Copysign(lu.tol, ak)
		for ak == 0 || math.Abs(t) > math.Abs(ak)*math.MaxFloat64 {
			ak += pert
			pert *= 2
		}
		y[k] = t / ak
	}
}

func scale(y []float64, s float64) {
	for i := range y {
		y[i] *= s
	}
}

// descendingOrder returns the indices of vals in the order SymEig sorts
// its eigenpairs: by descending value, ties in index order.
func descendingOrder(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx
}

// absMaxIndex returns the index of the first largest-magnitude entry.
func absMaxIndex(y []float64) int {
	best, at := -1.0, 0
	for i, v := range y {
		if a := math.Abs(v); a > best {
			best, at = a, i
		}
	}
	return at
}

// splitmix64 is the output mix of the SplitMix64 generator, whose state
// advances by invStartSeed per draw.
func splitmix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
