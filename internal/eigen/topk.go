package eigen

import (
	"fmt"
	"math"
	"math/rand"

	"dpz/internal/mat"
	"dpz/internal/metrics"
	"dpz/internal/scratch"
)

// maxSubspaceSweeps bounds the double-apply subspace iteration; a
// well-separated spectrum converges in a handful of sweeps.
const maxSubspaceSweeps = 40

// TopK computes the k leading eigenpairs of the symmetric PSD matrix a.
// This is the O(M²·k)-per-sweep path DPZ takes once k is fixed: for a
// large n and a small fraction k/n it runs orthogonal (subspace)
// iteration, avoiding the full O(M³) decomposition (Section IV-D: "when
// k ≪ min(M,N) the complexity of k-PCA can be reduced"). Otherwise it is
// the dense SymEigTopK at a fixed count, which computes only the k
// vectors and splits them across workers.
//
// seed makes the random starting subspace reproducible; workers bounds
// the parallelism (0 = GOMAXPROCS) and never changes a bit. tr (nil for
// none) receives the dense side's spans (see SymEigTopK); the iteration
// records none.
func TopK(a *mat.Dense, k int, seed int64, workers int, tr *metrics.Trace) (*System, error) {
	n, err := checkTopK(a, k)
	if err != nil {
		return nil, err
	}
	// The dense solver's O(n³) beats subspace iteration's O(n²·k·iters)
	// unless n is large and k a small fraction of it; route accordingly.
	if n <= 256 || k > n/8 {
		return leading(a, k, workers, tr)
	}
	p := subspaceWidth(n, k)
	qbuf := scratch.Floats(n * p)
	defer scratch.PutFloats(qbuf)
	q := mat.NewDenseData(n, p, qbuf)
	rng := rand.New(rand.NewSource(seed))
	for i := range q.Data() {
		q.Data()[i] = rng.NormFloat64()
	}
	orthonormalize(q)
	iterate(a, q, workers)
	sys, err := rayleighRitz(a, q, workers)
	if err != nil {
		return nil, err
	}
	return truncate(sys, k), nil
}

// checkTopK validates TopK's arguments and returns the matrix order.
func checkTopK(a *mat.Dense, k int) (int, error) {
	n, c := a.Dims()
	if n != c {
		return 0, fmt.Errorf("eigen: non-square input %dx%d", n, c)
	}
	if k < 1 || k > n {
		return 0, fmt.Errorf("eigen: k=%d out of range [1,%d]", k, n)
	}
	return n, nil
}

// leading is the dense route: SymEigTopK at the fixed count k, keeping
// the k leading eigenvalues with their vectors. Above SymEigTopK's
// crossover (k > n/3) the pairs are SymEig's bit for bit.
func leading(a *mat.Dense, k, workers int, tr *metrics.Trace) (*System, error) {
	sys, err := SymEigTopK(a, func([]float64) int { return k }, 0, workers, tr)
	if err != nil {
		return nil, err
	}
	sys.Values = sys.Values[:k:k]
	return sys, nil
}

// subspaceWidth is the working subspace column count: iterate on a
// slightly larger subspace than k for faster convergence of the trailing
// wanted eigenpair.
func subspaceWidth(n, k int) int {
	p := k + 8
	if p > n {
		p = n
	}
	return p
}

// iterate runs the double-apply subspace iteration on q in place until the
// captured variance stabilizes. Each sweep
// applies A twice (squaring the convergence ratio per sweep) and stops
// when the variance captured by the subspace — trace(QᵀAQ), the only
// quantity PCA consumes — is stable. Exact eigenpair separation is then
// restored by the Rayleigh–Ritz step.
func iterate(a, q *mat.Dense, workers int) {
	n, p := q.Dims()
	zbuf := scratch.Floats(n * p)
	defer scratch.PutFloats(zbuf)
	z := mat.NewDenseData(n, p, zbuf)
	prevCaptured := -1.0
	for sweep := 0; sweep < maxSubspaceSweeps; sweep++ {
		mat.MulInto(z, a, q, workers)
		// Captured variance: Σ_j (Qᵀ A Q)_jj = Σ_j Q_j·Z_j.
		var captured float64
		qd, zd := q.Data(), z.Data()
		for i, qv := range qd {
			captured += qv * zd[i]
		}
		mat.MulInto(q, a, z, workers)
		orthonormalize(q)
		if prevCaptured >= 0 && math.Abs(captured-prevCaptured) <= 1e-7*(1+math.Abs(captured)) {
			break
		}
		prevCaptured = captured
	}
}

// rayleighRitz solves the small p×p projected problem on the converged
// subspace q to resolve clustered eigenvalues cleanly, returning the full
// p Ritz pairs.
func rayleighRitz(a, q *mat.Dense, workers int) (*System, error) {
	n, p := q.Dims()
	aqBuf := scratch.Floats(n * p)
	defer scratch.PutFloats(aqBuf)
	aq := mat.NewDenseData(n, p, aqBuf)
	mat.MulInto(aq, a, q, workers)
	qtBuf := scratch.Floats(n * p)
	defer scratch.PutFloats(qtBuf)
	qt := mat.NewDenseData(p, n, qtBuf)
	mat.TransposeInto(qt, q)
	small := mat.NewDense(p, p)
	mat.MulInto(small, qt, aq, workers)
	// Symmetrize round-off.
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			v := 0.5 * (small.At(i, j) + small.At(j, i))
			small.Set(i, j, v)
			small.Set(j, i, v)
		}
	}
	// All p pairs: divide and conquer, SymEig's bits.
	ssys, err := leading(small, p, workers, nil)
	if err != nil {
		return nil, err
	}
	ritz := mat.NewDense(n, p)
	mat.MulInto(ritz, q, ssys.Vectors, workers)
	return &System{Values: ssys.Values, Vectors: ritz}, nil
}

// truncate keeps the first k eigenpairs of sys.
func truncate(sys *System, k int) *System {
	n, _ := sys.Vectors.Dims()
	vals := make([]float64, k)
	copy(vals, sys.Values[:k])
	vecs := mat.NewDense(n, k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			vecs.Set(i, j, sys.Vectors.At(i, j))
		}
	}
	return &System{Values: vals, Vectors: vecs}
}

// orthonormalize applies modified Gram–Schmidt with re-orthogonalization
// ("twice is enough") to the columns of q in place. Under subspace
// iteration the input columns can be violently ill-conditioned — repeated
// applications of A collapse them toward the dominant eigenspace — and a
// single MGS pass then loses orthogonality entirely; the second pass
// restores it to machine precision. Columns that collapse relative to
// their original norm are reseeded with canonical basis vectors.
//
// The work runs on a transposed scratch copy so every projection touches
// contiguous memory: q is row-major, and the straightforward column walk
// strides by p on each element, which turns the O(n·p²) MGS into a cache
// miss per access once n outgrows L1. Transposing in and out costs O(n·p)
// and changes no values; the dot/axpy sequences inside visit the same
// indices in the same order as the column walk, so the result is
// bit-identical to the untransposed form.
func orthonormalize(q *mat.Dense) {
	n, p := q.Dims()
	qtBuf := scratch.Floats(p * n)
	defer scratch.PutFloats(qtBuf)
	qt := mat.NewDenseData(p, n, qtBuf)
	mat.TransposeInto(qt, q)
	orthonormalizeRows(qt)
	mat.TransposeInto(q, qt)
}

// orthonormalizeRows runs the MGS sweep on qt's rows (the transposed
// columns of the caller's basis), each a contiguous n-element slice.
func orthonormalizeRows(qt *mat.Dense) {
	p, n := qt.Dims()
	// project orthogonalizes row j against rows 0..j-1 in place and
	// returns the remaining norm. Dot accumulates ascending with a single
	// accumulator and Axpy computes row[r] += (-d)·prev[r], which IEEE 754
	// guarantees equals row[r] - d·prev[r] bit-for-bit.
	project := func(j int) float64 {
		row := qt.Row(j)
		for i := 0; i < j; i++ {
			prev := qt.Row(i)
			d := mat.Dot(prev, row)
			mat.Axpy(row, prev, -d)
		}
		return math.Sqrt(mat.Dot(row, row))
	}
	for j := 0; j < p; j++ {
		row := qt.Row(j)
		norm0 := math.Sqrt(mat.Dot(row, row))
		project(j)
		norm := project(j) // second pass restores orthogonality
		if norm <= 1e-10*norm0 || norm == 0 {
			// The column lay (numerically) inside the span of its
			// predecessors: reseed with canonical basis vectors until one
			// survives the projection.
			for attempt := 0; ; attempt++ {
				for r := range row {
					row[r] = 0
				}
				row[(j+attempt*31)%n] = 1
				project(j)
				norm = project(j)
				if norm > 1e-8 || attempt > n {
					break
				}
			}
			if norm == 0 {
				norm = 1
			}
		}
		inv := 1 / norm
		for r := range row {
			row[r] *= inv
		}
	}
}
