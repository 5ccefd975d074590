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
// tridiagonal inverse iteration (LAPACK dstein), O(n·k) per sweep plus
// reorthogonalization, instead of divide and conquer's O(n³) for every
// vector (dc.go) — the "k-PCA complexity reduction" of the paper's
// Section IV-D. Either way a Householder back-transform (dormtr), O(n²·k),
// maps the k vectors back.

const (
	// topKInverseMaxNum/topKInverseMaxDen is the largest fraction of n
	// for which SymEigTopK computes vectors by inverse iteration. Beyond
	// it divide and conquer is cheaper, because reorthogonalizing a long
	// run of clustered eigenvalues grows as n·k². Chosen by measurement
	// on the Stage 2 covariances at n ∈ {16, 128, 256, 900}, workers 1
	// and 2 (docs/PERFORMANCE.md §25; §13 chose 1/2 against the
	// accumulation route).
	topKInverseMaxNum, topKInverseMaxDen = 1, 3
	// topKGuardTol bounds each inverse-iteration vector's residual
	// ‖Tw − λw‖₂ (relative to ‖T‖₁) and the pairwise orthogonality error
	// |wᵢᵀwⱼ − δᵢⱼ|. Both measure near 1e-15 on well-formed inputs; a
	// kept vector beyond the bound sends every vector to divide and
	// conquer, and a margin vector beyond it ends the margin.
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
	// virtual machine, more than a smaller share of the vectors saves
	// (measured at n ≤ 64, docs/PERFORMANCE.md §15).
	minStripeRows = 64
	// backTransformRows is how many vectors the back-transform carries
	// through every reflector at once: 16 rows of 256 floats stay in a
	// 48 KiB L1 cache. Against one reflector at a time over every vector
	// it took 5.6 against 6.8 ms at n=256 and 228 against 280 ms at n=900
	// (kv = n−2, one worker; docs/PERFORMANCE.md §25).
	backTransformRows = 16
	// invStartSeed is the SplitMix64 increment behind the deterministic
	// start vectors; the generator restarts at zero on every solve.
	invStartSeed = 0x9e3779b97f4a7c15
)

// SymEigTopK computes every eigenvalue of the symmetric matrix a and the
// eigenvectors of only the leading ones. count receives all n
// eigenvalues, sorted descending and bit-identical to SymEigValues's, and
// returns how many leading eigenvectors to keep (clamped to [0, n]); it
// must not modify the slice. extra more vectors (up to n in all) are
// computed past them, by the route the kept count alone chooses, so the
// kept vectors' bits do not depend on extra. The returned System holds
// all n values and the kept and extra vectors as columns; on the inverse
// route the extra vectors end before the first one the guard rejects,
// so a margin vector the guard rejects never moves the kept ones to
// divide and conquer.
//
// Counts up to a third of n take tridiagonal inverse iteration, guarded
// on residual and orthogonality; larger counts, and kept vectors the
// guard rejects, take divide and conquer, which is SymEig's route, so those
// vectors are SymEig's bit for bit. Either route's vectors are
// back-transformed by the same Householder kernel, and they agree with
// each other to round-off. A vector's sign follows the last component
// of the QL sweep's eigenvector (read off the eigenvalue sweep at O(1)
// per rotation) wherever that is not negligible, so a vector keeps its
// sign across routes; elsewhere the largest tridiagonal-basis component
// is positive. Only the lower triangle of a
// is read; a is not modified.
//
// workers bounds the parallelism of the vector phases (0 = GOMAXPROCS;
// 1 starts no goroutine) and never changes a bit. Each worker gets at
// least minStripeRows rows, so a small matrix runs on one. The reduction,
// the eigenvalue sweep, inverse iteration and divide and conquer are
// serial; the back-transform splits the vectors.
//
// tr (nil for none) receives three spans under StageSpan: reduce (the
// Householder reduction), values (the eigenvalue sweep, the sort and
// count) and vectors (inverse iteration or divide and conquer, and the
// back-transform).
func SymEigTopK(a *mat.Dense, count func(values []float64) int, extra, workers int, tr *metrics.Trace) (*System, error) {
	n, _ := a.Dims()
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	workers = max(1, min(workers, n/minStripeRows))
	sys, _, err := symEigTopK(a, count, extra, workers, n*topKInverseMaxNum/topKInverseMaxDen, topKGuardTol, tr)
	return sys, err
}

// StageSpan is the span SymEigTopK's spans are part of in a compress
// trace: the Stage 2 fit's eigensolve.
const StageSpan = "eig"

// symEigTopK is SymEigTopK with the crossover (the largest kept count
// inverse iteration serves) and the guard tolerance as parameters. It
// also reports whether the vectors came from inverse iteration.
func symEigTopK(a *mat.Dense, count func(values []float64) int, extra, workers, maxInverse int, tol float64, tr *metrics.Trace) (sys *System, inverse bool, err error) {
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
	h := scratch.Floats(n) // reflector scalars
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
	// the last component of each of the QL sweep's eigenvectors, whose
	// signs the vectors of either route then adopt.
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
	keep := min(max(count(vals), 0), n)
	kv := min(keep+max(extra, 0), n)
	tr.Add("values", StageSpan, t0)
	t0 = metrics.Now()
	defer func() { tr.Add("vectors", StageSpan, t0) }()
	if kv == 0 {
		return &System{Values: vals, Vectors: mat.NewDense(n, 0)}, false, nil
	}

	signs := scratch.Floats(kv)
	defer scratch.PutFloats(signs)
	for j := range signs {
		signs[j] = last[order[j]]
	}
	if keep <= maxInverse {
		// Vector j depends only on the vectors before it, and the guard
		// accepts a prefix, so the kept count alone decides the route.
		wt := scratch.Floats(kv * n)
		defer scratch.PutFloats(wt)
		if good := tridiagonalVectors(d, e, vals[:kv], signs, wt, tol); good >= keep {
			return &System{Values: vals, Vectors: backTransformed(z, h, wt, n, good, workers)}, true, nil
		}
	}

	// Divide and conquer: every eigenvector of the tridiagonal, paired by
	// rank with the sorted eigenvalues. The kv leading ones take the
	// inverse route's sign rule and the same back-transform; the spent
	// workspace holds them.
	ws := scratch.Floats(max(dcFloats(n), kv*n))
	defer scratch.PutFloats(ws)
	q := scratch.Floats(n * n)
	defer scratch.PutFloats(q)
	lam := scratch.Floats(n)
	defer scratch.PutFloats(lam)
	if err := tridiagonalEigen(d, e, q, lam, ws); err != nil {
		return nil, false, err
	}
	wt := ws[:kv*n]
	for j, c := range descendingOrder(lam)[:kv] {
		y := wt[j*n : (j+1)*n]
		for i := range y {
			y[i] = q[i*n+c]
		}
		orient(y, signs[j])
	}
	return &System{Values: vals, Vectors: backTransformed(z, h, wt, n, kv, workers)}, false, nil
}

// tridiagonalVectors computes, by inverse iteration, the eigenvectors of
// the symmetric tridiagonal matrix with diagonal d and sub-diagonal e
// (e[i] couples i−1 and i) for the descending eigenvalues vals, into the
// rows of the len(vals)×n row-major wt. It returns how many leading
// vectors it accepts: those before the first that fails to converge or
// misses the residual/orthogonality guard tol.
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
func tridiagonalVectors(d, e, vals, signs, wt []float64, tol float64) int {
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
		return 0
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
			return tridiagonalGuard(d, e, vals[:j], wt, onenrm, tol)
		}
		scale(y, 1/math.Sqrt(mat.Dot(y, y)))
		orient(y, signs[j])
		xjm = xj
	}
	return tridiagonalGuard(d, e, vals, wt, onenrm, tol)
}

// orient fixes the sign of the unit tridiagonal eigenvector y: where
// the last component of the reference vector, ref, is not negligible
// (signMinLast) y's last component takes its sign; otherwise y's
// largest-magnitude entry is made positive.
func orient(y []float64, ref float64) {
	var flip bool
	if math.Abs(ref) >= signMinLast {
		flip = (y[len(y)-1] < 0) != (ref < 0)
	} else {
		flip = y[absMaxIndex(y)] < 0
	}
	if flip {
		scale(y, -1)
	}
}

// tridiagonalGuard returns how many leading rows w of wt pass the guard:
// a residual ‖Tw − λw‖₂ within tol·‖T‖₁, and orthonormality within tol
// against each earlier row and itself. NaNs fail it.
func tridiagonalGuard(d, e, vals, wt []float64, onenrm, tol float64) int {
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
			return j
		}
		for i := 0; i <= j; i++ {
			g := mat.Dot(wt[i*n:(i+1)*n], w)
			if i == j {
				g--
			}
			if !(math.Abs(g) <= tol) {
				return j
			}
		}
	}
	return len(vals)
}

// backTransform maps the tridiagonal eigenvectors in the rows of the
// kv×n wt to eigenvectors of the original matrix, v = Q·w with
// Q = P_{n-1}···P_1, by applying the reflectors reduce left in the
// rows of z (scalars in h) innermost first: each is a dot and an axpy
// over its prefix of a row. The rows are split into contiguous chunks,
// one per worker, and a chunk takes every reflector backTransformRows
// rows at a time, so those rows stay in cache while the reflectors
// stream past. Each row sees the same operations in any grouping, so
// the bits do not depend on workers.
func backTransform(z, h, wt []float64, n, kv, workers int) {
	parallel.ForChunks(kv, workers, func(lo, hi int) {
		for g := lo; g < hi; g += backTransformRows {
			for i := 1; i < n; i++ {
				if h[i] != 0 {
					reflectRows(wt, n, g, min(g+backTransformRows, hi), z[i*n:i*n+i], h[i])
				}
			}
		}
	})
}

// backTransformed back-transforms the rows of wt (backTransform) and
// returns them as the columns of a new n×kv matrix.
func backTransformed(z, h, wt []float64, n, kv, workers int) *mat.Dense {
	backTransform(z, h, wt, n, kv, workers)
	vecs := mat.NewDense(n, kv)
	vd := vecs.Data()
	for j := 0; j < kv; j++ {
		for i, v := range wt[j*n : (j+1)*n] {
			vd[i*kv+j] = v
		}
	}
	return vecs
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
