package eigen

import (
	"math"

	"dpz/internal/mat"
	"dpz/internal/scratch"
)

// This file is the divide-and-conquer route's eigenvectors: every
// eigenvector of the symmetric tridiagonal matrix the reduction leaves,
// by Cuppen's method with Gu and Eisenstat's vectors, the way LAPACK's
// dstedc and dlaed0–dlaed4 compute them. A block is torn in the middle by
// a rank-one modification, both halves are solved, one after the other,
// and the halves' vectors are merged:
//
//   - deflation drops the pairs the rank-one term leaves (almost)
//     unchanged, a small weight zᵢ or two poles close enough that a
//     Givens rotation zeroes one weight;
//   - each remaining eigenvalue is a root of the secular equation,
//     solved relative to its nearest pole;
//   - the weights are recomputed from the roots by Löwner's formula, so
//     the merged vectors are orthogonal to working precision however
//     close the roots are;
//   - the merged vectors are two products (mat.GemmInto) of the halves'
//     vectors with the small eigenvector matrix, one for the upper rows
//     and one for the lower, each over the columns nonzero there.
//
// All but the O(n²) bookkeeping is in those products: (4/3)·n³ flops at
// most, fewer as more pairs deflate. It runs on one goroutine:
// concurrent halves and a merge split over workers showed no gain on
// any benchmark workload (docs/PERFORMANCE.md §25); the caller splits
// the back-transform over workers instead.

const (
	// dcLeaf is the largest block solved directly, by the QL iteration
	// on an identity, instead of being torn.
	dcLeaf = 32
	// dcEps is the relative machine precision LAPACK's dlamch('E')
	// returns for IEEE double: the unit in the deflation tolerance and
	// the secular solver's stopping test.
	dcEps = 0x1p-53
	// secularRational is how many rational steps a secular root takes
	// before the solver falls back to bisection of its bracket, which
	// ends once the bracket has no interior float.
	secularRational = 40
)

// dcFloats, dcSmall and dcInts are the workspace a tree of order s
// needs: a merge of order s packs the halves' vectors and forms the
// small eigenvector matrix in 2s² floats, and keeps 8s floats and 6s
// ints of vectors; the deltas and the products go to the block's own
// rows of q. The halves and a leaf reuse the same room.
func dcFloats(s int) int { return 2 * s * s }
func dcSmall(s int) int  { return 8 * s }
func dcInts(s int) int   { return 6 * s }

// dcTree solves one unreduced block of the tridiagonal matrix. q is the
// n×n row-major result: a block [o, o+s) owns rows and columns o..o+s−1,
// and its column c ends as the eigenvector (in rows o..o+s−1) of the
// eigenvalue d[o+c], sorted ascending. Entries outside every block stay
// zero, which the merges rely on.
type dcTree struct {
	n int
	d []float64 // diagonal, torn; each block's eigenvalues once solved
	e []float64 // e[i] couples i−1 and i
	q []float64
}

// tridiagonalEigen computes every eigenvector of the symmetric
// tridiagonal matrix with diagonal d and sub-diagonal e (e[i] couples
// i−1 and i; e[0] is ignored) into the n×n row-major q, where
// n = len(d): column c of q is the unit eigenvector of lam[c]. d and e
// are not modified. The matrix is first split where an off-diagonal is
// negligible (|e[i]| ≤ ε·√|d[i−1]|·√|d[i]|, dstedc's test) and every
// block of more than one row is scaled to a largest entry of one before
// it is solved. ws is the workspace, at least dcFloats(n) floats. It
// fails only if a leaf's QL iteration does not converge.
func tridiagonalEigen(d, e, q, lam, ws []float64) error {
	n := len(d)
	sm := scratch.Floats(dcSmall(n) + n)
	defer scratch.PutFloats(sm)
	iws := make([]int, dcInts(n))
	t := dcTree{n: n, d: lam, e: sm[dcSmall(n):], q: q}
	copy(lam, d)
	copy(t.e, e)
	clear(q)
	for start := 0; start < n; {
		end := start
		for end+1 < n && math.Abs(e[end+1]) > dcEps*math.Sqrt(math.Abs(d[end]))*math.Sqrt(math.Abs(d[end+1])) {
			end++
		}
		m := end - start + 1
		if m == 1 {
			q[start*n+start] = 1
			start++
			continue
		}
		var nrm float64
		for i := start; i <= end; i++ {
			nrm = max(nrm, math.Abs(d[i]))
			if i > start {
				nrm = max(nrm, math.Abs(e[i]))
			}
		}
		for i := start; i <= end; i++ {
			lam[i] /= nrm
			t.e[i] /= nrm
		}
		if err := t.solve(start, m, dcWork{ws, sm, iws}); err != nil {
			return err
		}
		for i := start; i <= end; i++ {
			lam[i] *= nrm
		}
		start = end + 1
	}
	return nil
}

// dcWork is the workspace: dcFloats(s) floats, dcSmall(s) floats of
// vectors and dcInts(s) ints for a tree of order s.
type dcWork struct {
	f, sm []float64
	iw    []int
}

// solve computes block [o, o+s)'s eigenpairs into t.d and t.q. A block
// of more than dcLeaf rows is torn after its first ⌊s/2⌋ rows: the
// coupling β leaves both diagonal entries at the tear, reduced by |β|,
// and returns as the rank-one term of the merge. The halves are solved
// one after the other in the same workspace.
func (t *dcTree) solve(o, s int, ws dcWork) error {
	if s <= dcLeaf {
		return t.leaf(o, s, ws)
	}
	n1 := s / 2
	beta := t.e[o+n1]
	t.d[o+n1-1] -= math.Abs(beta)
	t.d[o+n1] -= math.Abs(beta)
	if err := t.solve(o, n1, ws); err != nil {
		return err
	}
	if err := t.solve(o+n1, s-n1, ws); err != nil {
		return err
	}
	t.merge(o, s, n1, beta, ws)
	return nil
}

// leaf solves block [o, o+s) with the QL iteration, its rotations
// applied to the rows of an identity (row j ends as eigenvector j), and
// writes the pairs in ascending order of eigenvalue; ties keep the QL
// order.
func (t *dcTree) leaf(o, s int, ws dcWork) error {
	n := t.n
	zt, ev, vals := ws.f[:s*s], ws.sm[:s], ws.sm[s:2*s]
	clear(zt)
	for i := 0; i < s; i++ {
		zt[i*s+i] = 1
	}
	copy(ev[1:], t.e[o+1:o+s])
	d := t.d[o : o+s]
	if err := tqli(d, ev, func(i int, sn, c float64) { rotateRows(zt, s, i, sn, c) }); err != nil {
		return err
	}
	perm := ws.iw[:s]
	for i := range perm {
		j := i
		for ; j > 0 && d[perm[j-1]] > d[i]; j-- {
			perm[j] = perm[j-1]
		}
		perm[j] = i
	}
	for c, p := range perm {
		vals[c] = d[p]
		for r, v := range zt[p*s : (p+1)*s] {
			t.q[(o+r)*n+o+c] = v
		}
	}
	copy(d, vals)
	return nil
}

// merge combines the solved halves [o, o+n1) and [o+n1, o+s) of a block
// torn at coupling beta (LAPACK dlaed1–dlaed3). With Q the halves'
// vectors side by side, the block is Q·(D + ρ·z·zᵀ)·Qᵀ, where z is the
// last row of the upper half's vectors over the first row of the
// lower's (sign-adjusted to make ρ > 0); the eigenpairs of D + ρ·z·zᵀ
// then give the block's. Once the halves' vectors are packed into ws,
// the block's rows of q (s·n floats) hold the secular deltas and then
// the products.
func (t *dcTree) merge(o, s, n1 int, beta float64, ws dcWork) {
	n, n2 := t.n, s-n1
	q, d := t.q, t.d[o:o+s]
	blk := q[o*n : (o+s)*n]
	sm := ws.sm
	z, dl, w, zh, lam, dv, tmp := sm[:s], sm[s:2*s], sm[2*s:3*s], sm[3*s:4*s], sm[4*s:5*s], sm[5*s:6*s], sm[6*s:7*s]
	iw := ws.iw
	indx, ctype, src, defl, qrow, outsrc := iw[:s], iw[s:2*s], iw[2*s:3*s], iw[3*s:4*s], iw[4*s:5*s], iw[5*s:6*s]

	// The rank-one term, normalized so ‖z‖ = 1 (dlaed2).
	rho := beta
	for i := 0; i < n1; i++ {
		z[i] = q[(o+n1-1)*n+o+i]
	}
	for i := n1; i < s; i++ {
		z[i] = q[(o+n1)*n+o+i]
		if rho < 0 {
			z[i] = -z[i]
		}
	}
	for i := range z {
		z[i] *= 1 / math.Sqrt2
	}
	rho = math.Abs(2 * rho)

	// Both halves are sorted; indx is their merged order.
	for p, i1, i2 := 0, 0, n1; p < s; p++ {
		if i2 >= s || (i1 < n1 && d[i1] <= d[i2]) {
			indx[p], i1 = i1, i1+1
		} else {
			indx[p], i2 = i2, i2+1
		}
	}
	var zmax, dmax float64
	for i := 0; i < s; i++ {
		zmax = max(zmax, math.Abs(z[i]))
		dmax = max(dmax, math.Abs(d[i]))
		ctype[i] = dcUpper
		if i >= n1 {
			ctype[i] = dcLower
		}
	}

	// Deflation. A column whose weight is negligible keeps its pair; of
	// two poles whose rotation-zeroed weight would move the eigenvalue by
	// no more than tol, the first keeps a (rotated) pair and the second
	// carries both weights on. k poles remain, ascending.
	tol := 8 * dcEps * max(dmax, zmax)
	k, nd, pj := 0, 0, -1
	for _, nj := range indx {
		if rho*math.Abs(z[nj]) <= tol {
			ctype[nj], defl[nd], nd = dcDeflated, nj, nd+1
			continue
		}
		if pj < 0 {
			pj = nj
			continue
		}
		sn, c := z[pj], z[nj]
		tau := math.Hypot(c, sn)
		c /= tau
		sn = -sn / tau
		if math.Abs((d[nj]-d[pj])*c*sn) > tol {
			src[k], k, pj = pj, k+1, nj
			continue
		}
		z[nj], z[pj] = tau, 0
		if ctype[nj] != ctype[pj] {
			ctype[nj] = dcDense
		}
		ctype[pj] = dcDeflated
		for r := o; r < o+s; r++ {
			x, y := q[r*n+o+pj], q[r*n+o+nj]
			q[r*n+o+pj] = c*x + sn*y
			q[r*n+o+nj] = c*y - sn*x
		}
		dp := d[pj]*c*c + d[nj]*sn*sn
		d[nj] = d[pj]*sn*sn + d[nj]*c*c
		d[pj] = dp
		defl[nd], nd = pj, nd+1
		pj = nj
	}
	if pj >= 0 {
		src[k], k = pj, k+1
	}
	// The deflated pairs in ascending order (insertion sort: the
	// weight-deflated arrive sorted, a rotated one moves a short way).
	for i := 1; i < nd; i++ {
		x := defl[i]
		j := i
		for ; j > 0 && d[defl[j-1]] > d[x]; j-- {
			defl[j] = defl[j-1]
		}
		defl[j] = x
	}

	// Pack the old vectors by kind, as LAPACK's Q2: the upper rows of the
	// upper-only and dense columns (n1×n12), the lower rows of the dense
	// and lower-only columns (n2×n23), then every deflated column whole
	// (s×nd), at most s² floats in all. qrow[i] is pole i's row in the
	// small eigenvector matrix, whose rows run upper-only, dense,
	// lower-only.
	var cnt [3]int
	for i := 0; i < k; i++ {
		cnt[ctype[src[i]]]++
	}
	c1, c2 := cnt[dcUpper], cnt[dcDense]
	n12, n23 := c1+c2, k-c1
	next := [3]int{dcUpper: 0, dcDense: c1, dcLower: c1 + c2}
	for i := 0; i < k; i++ {
		ct := ctype[src[i]]
		qrow[i] = next[ct]
		next[ct]++
	}
	q2u := ws.f[:n1*n12]
	q2l := ws.f[n1*n12 : n1*n12+n2*n23]
	q2d := ws.f[n1*n12+n2*n23 : n1*n12+n2*n23+s*nd]
	for r := 0; r < s; r++ {
		row := blk[r*n+o : r*n+o+s]
		for i := 0; i < k; i++ {
			if r < n1 && qrow[i] < n12 {
				q2u[r*n12+qrow[i]] = row[src[i]]
			} else if r >= n1 && qrow[i] >= c1 {
				q2l[(r-n1)*n23+qrow[i]-c1] = row[src[i]]
			}
		}
		for x, c := range defl[:nd] {
			q2d[r*nd+x] = row[c]
		}
	}

	// The eigenpairs of D + ρ·z·zᵀ on the k poles: the roots, with
	// wd[j·k+i] = dl[i] − lam[j] in the block's rows; Löwner's weights;
	// then the small eigenvector matrix u (k×k, row qrow[i] for pole i,
	// column j the vector of root j).
	if k > 0 {
		u := ws.f[s*s : s*s+k*k]
		wd := blk[:k*k]
		var ww float64
		for i := 0; i < k; i++ {
			dl[i], w[i] = d[src[i]], z[src[i]]
			ww += w[i] * w[i]
		}
		dl, w, zh, lam = dl[:k], w[:k], zh[:k], lam[:k]
		for j := 0; j < k; j++ {
			lam[j] = secularRoot(j, dl, w, rho, ww, wd[j*k:(j+1)*k])
		}
		lowner(zh, dl, w, wd)
		for j := 0; j < k; j++ {
			col := wd[j*k : (j+1)*k]
			var big float64
			for i, x := range zh {
				col[i] = x / col[i]
				big = max(big, math.Abs(col[i]))
			}
			var ss float64
			for _, x := range col {
				x /= big
				ss += x * x
			}
			inv := 1 / (big * math.Sqrt(ss))
			for i, x := range col {
				u[qrow[i]*k+j] = x * inv
			}
		}
		// The deltas are spent: the block's rows take the products, an
		// n1×k upper part over an n2×k lower one.
		mat.GemmInto(mat.NewDenseData(n1, k, blk[:n1*k]), mat.NewDenseData(n1, n12, q2u), mat.NewDenseData(n12, k, u[:n12*k]), 1)
		mat.GemmInto(mat.NewDenseData(n2, k, blk[n1*k:s*k]), mat.NewDenseData(n2, n23, q2l), mat.NewDenseData(n23, k, u[c1*k:]), 1)
	}

	// Write the block back in ascending order (the roots interlace the
	// poles, so they are sorted, and so are the deflated pairs), from the
	// last row up: row r of the products (at r·k) then never lies past
	// the start of its target row (r·n), which may overlap it, so each
	// goes through tmp. The rest of every row is zeroed again.
	for c, j, x := 0, 0, 0; c < s; c++ {
		if x >= nd || (j < k && lam[j] <= d[defl[x]]) {
			outsrc[c], dv[c], j = j, lam[j], j+1
		} else {
			outsrc[c], dv[c], x = k+x, d[defl[x]], x+1
		}
	}
	copy(d, dv[:s])
	tmp = tmp[:k]
	for r := s - 1; r >= 0; r-- {
		copy(tmp, blk[r*k:(r+1)*k])
		row := blk[r*n : (r+1)*n]
		clear(row[:o])
		clear(row[o+s:])
		for c, sc := range outsrc[:s] {
			if sc < k {
				row[o+c] = tmp[sc]
			} else {
				row[o+c] = q2d[r*nd+sc-k]
			}
		}
	}
}

// Column kinds of a merge (LAPACK dlaed2's COLTYP): nonzero in the
// upper rows only, in both, in the lower rows only, or deflated.
const (
	dcUpper = iota
	dcDense
	dcLower
	dcDeflated
)

// lowner recomputes the weights from the roots (Gu & Eisenstat):
// ẑᵢ² = −(dᵢ − λᵢ)·Πⱼ≠ᵢ (dᵢ − λⱼ)/(dᵢ − dⱼ), with the sign of the old
// weight. wd[j·k+i] holds dᵢ − λⱼ; each product runs over j ascending,
// a row of wd at a time.
func lowner(zh, dl, w, wd []float64) {
	k := len(dl)
	for i := range zh {
		zh[i] = wd[i*k+i]
	}
	for j := 0; j < k; j++ {
		row := wd[j*k : (j+1)*k]
		for i := range zh {
			if i != j {
				zh[i] *= row[i] / (dl[i] - dl[j])
			}
		}
	}
	for i := range zh {
		zh[i] = math.Copysign(math.Sqrt(-zh[i]), w[i])
	}
}

// secularRoot returns the j-th smallest root λ of the secular equation
// 1/ρ + Σᵢ wᵢ²/(dᵢ − λ) = 0 (poles d ascending and distinct, every
// weight nonzero, ρ > 0, ww = Σᵢ wᵢ²) and leaves dᵢ − λ in delta[i]
// (LAPACK dlaed4). The root lies in (d_j, d_{j+1}), or in
// (d_{k−1}, d_{k−1} + ρ·ww] for the last. It is found as τ = λ − d_o
// relative to the pole d_o nearer to it, so every dᵢ − λ is
// (dᵢ − d_o) − τ with full relative accuracy. Each step is the rational
// model that keeps the two poles around the root exact ("fixed weight"),
// and a step that leaves the bracket the signs have narrowed bisects it
// instead; after secularRational steps only bisection remains. The
// iteration stops when |f(τ)| is within its rounding-error bound, or the
// bracket has no interior float, so it always ends.
func secularRoot(j int, d, w []float64, rho, ww float64, delta []float64) float64 {
	k := len(d)
	if k == 1 {
		tau := rho * w[0] * w[0]
		delta[0] = -tau
		return d[0] + tau
	}
	rhoinv := 1 / rho
	last := j == k-1
	// The initial guess solves the model that keeps the two poles around
	// the root exact and the rest at the bracket's midpoint.
	var org int
	var lo, hi, tau float64
	if last {
		org = k - 1
		hi = rho * ww
		mid := hi / 2
		c := rhoinv
		for i := 0; i < k-2; i++ {
			c += w[i] * w[i] / ((d[i] - d[org]) - mid)
		}
		del := d[k-1] - d[k-2]
		a := -c*del + w[k-2]*w[k-2] + w[k-1]*w[k-1]
		b := w[k-1] * w[k-1] * del
		if c+w[k-2]*w[k-2]/(-del-mid)+w[k-1]*w[k-1]/(-mid) <= 0 {
			lo = mid
		} else {
			hi = mid
		}
		if a < 0 {
			tau = 2 * b / (math.Sqrt(a*a+4*b*c) - a)
		} else {
			tau = (a + math.Sqrt(a*a+4*b*c)) / (2 * c)
		}
	} else {
		del := d[j+1] - d[j]
		mid := del / 2
		c := rhoinv
		for i := range d {
			if i != j && i != j+1 {
				c += w[i] * w[i] / ((d[i] - d[j]) - mid)
			}
		}
		wj, wj1 := w[j]*w[j], w[j+1]*w[j+1]
		if c+wj/(-mid)+wj1/(del-mid) > 0 {
			org, lo, hi = j, 0, mid
			a, b := c*del+wj+wj1, wj*del
			if a > 0 {
				tau = 2 * b / (a + math.Sqrt(math.Abs(a*a-4*b*c)))
			} else {
				tau = (a - math.Sqrt(math.Abs(a*a-4*b*c))) / (2 * c)
			}
		} else {
			org, lo, hi = j+1, -mid, 0
			a, b := c*del-wj-wj1, wj1*del
			if a < 0 {
				tau = 2 * b / (a - math.Sqrt(math.Abs(a*a+4*b*c)))
			} else {
				tau = -(a + math.Sqrt(math.Abs(a*a+4*b*c))) / (2 * c)
			}
		}
	}
	for i := range delta {
		delta[i] = d[i] - d[org]
	}
	if !(tau > lo && tau < hi) {
		tau = lo + (hi-lo)/2
	}
	for it := 0; ; it++ {
		// f/ρ at τ: the poles left of the origin summed upward, those
		// right of it downward, the origin's term apart (dlaed4's order),
		// with erretm bounding the rounding error of the sum.
		var psi, dpsi, phi, dphi, erretm float64
		for i := 0; i < org; i++ {
			t := w[i] / (delta[i] - tau)
			psi += w[i] * t
			dpsi += t * t
			erretm += psi
		}
		erretm = math.Abs(erretm)
		for i := k - 1; i > org; i-- {
			t := w[i] / (delta[i] - tau)
			phi += w[i] * t
			dphi += t * t
			erretm += phi
		}
		t := w[org] / -tau
		term := w[org] * t
		f := rhoinv + psi + phi + term
		df := dpsi + dphi + t*t
		erretm += 8*(phi-psi) + 2*rhoinv + 3*math.Abs(term) + math.Abs(tau)*df
		if math.Abs(f) <= dcEps*erretm {
			break
		}
		if f <= 0 {
			lo = tau
		} else {
			hi = tau
		}
		next := math.NaN()
		if it < secularRational {
			next = tau + secularStep(j, org, last, delta, w, tau, f, df, dpsi, t*t)
		}
		if !(next > lo && next < hi) {
			next = lo + (hi-lo)/2
			if !(next > lo && next < hi) {
				break
			}
		}
		tau = next
	}
	for i := range delta {
		delta[i] -= tau
	}
	return d[org] + tau
}

// secularStep is dlaed4's fixed-weight step η from τ: the root of the
// model that matches f and f′ at τ and keeps the two poles around the
// root exact, or the Newton step where the model points the wrong way.
// f and df are f/ρ and its derivative at τ, dpsi the derivative of the
// terms left of the origin and dorg that of the origin's term.
func secularStep(j, org int, last bool, delta, w []float64, tau, f, df, dpsi, dorg float64) float64 {
	var eta float64
	if last {
		k := len(delta)
		dm, dn := delta[k-2]-tau, -tau
		c := math.Abs(f - dm*dpsi - dn*dorg)
		a := (dm+dn)*f - dm*dn*df
		b := dm * dn * f
		switch {
		case c == 0:
			return math.NaN() // bisect
		case a >= 0:
			eta = (a + math.Sqrt(math.Abs(a*a-4*b*c))) / (2 * c)
		default:
			eta = 2 * b / (a - math.Sqrt(math.Abs(a*a-4*b*c)))
		}
		if f*eta > 0 {
			eta = -f / df
		}
		return eta
	}
	dj, dj1 := delta[j]-tau, delta[j+1]-tau
	var c float64
	if org == j {
		c = f - dj1*df - (dj-dj1)*(w[j]/dj)*(w[j]/dj)
	} else {
		c = f - dj*df - (dj1-dj)*(w[j+1]/dj1)*(w[j+1]/dj1)
	}
	a := (dj+dj1)*f - dj*dj1*df
	b := dj * dj1 * f
	switch {
	case c == 0:
		if a == 0 {
			if org == j {
				a = w[j]*w[j] + dj1*dj1*(df-dorg)
			} else {
				a = w[j+1]*w[j+1] + dj*dj*(df-dorg)
			}
		}
		eta = b / a
	case a <= 0:
		eta = (a - math.Sqrt(math.Abs(a*a-4*b*c))) / (2 * c)
	default:
		eta = 2 * b / (a + math.Sqrt(math.Abs(a*a-4*b*c)))
	}
	if f*eta >= 0 {
		eta = -f / df
	}
	return eta
}
