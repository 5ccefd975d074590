package eigen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// dcSizes are the orders the divide-and-conquer tests run at: the
// smallest, either side of the leaf size, and either side of the
// perfbench order.
var dcSizes = []int{1, 2, 3, 31, 32, 33, 64, 255, 256, 257}

// tridiagonal is a symmetric tridiagonal test matrix: diagonal d and
// sub-diagonal e, e[i] coupling i−1 and i (e[0] is unused).
type tridiagonal struct{ d, e []float64 }

// dcCases are the tridiagonal inputs at order n.
func dcCases(t testing.TB, n int) map[string]tridiagonal {
	rng := rand.New(rand.NewSource(int64(3000 + n)))
	cases := map[string]tridiagonal{}
	fill := func(name string, d, e func(i int) float64) {
		c := tridiagonal{make([]float64, n), make([]float64, n)}
		for i := 0; i < n; i++ {
			c.d[i] = d(i)
			if i > 0 {
				c.e[i] = e(i)
			}
		}
		cases[name] = c
	}
	zero := func(int) float64 { return 0 }
	one := func(int) float64 { return 1 }
	fill("identity", one, zero)
	// Couplings just above the split test but below every merge's
	// deflation tolerance: every pair deflates.
	fill("identity-deflating", one, func(int) float64 { return 2e-16 })
	fill("diagonal", func(int) float64 { return rng.NormFloat64() }, zero)
	fill("zero-splits", func(int) float64 { return rng.NormFloat64() }, func(i int) float64 {
		if i%7 == 0 || i%29 == 3 {
			return 0
		}
		return rng.NormFloat64()
	})
	// Wilkinson's W21⁺ blocks glued by a small coupling: pairs of
	// eigenvalues agree to many digits, and the glue makes clusters.
	for _, glue := range []float64{1e-8, 1e-14} {
		fill(fmt.Sprintf("wilkinson-glued-%g", glue), func(i int) float64 {
			return math.Abs(float64(i%21 - 10))
		}, func(i int) float64 {
			if i%21 == 0 {
				return glue
			}
			return 1
		})
	}
	grade := func(i int) float64 {
		if n == 1 {
			return 1
		}
		return math.Pow(10, -300*float64(n-1-i)/float64(n-1))
	}
	fill("graded", grade, func(i int) float64 { return grade(i) })
	fill("random", func(int) float64 { return rng.NormFloat64() }, func(int) float64 { return rng.NormFloat64() })
	if n == 256 {
		for _, field := range []struct {
			name string
			seed int64
		}{{"CLDHGH", 2001}, {"PHIS", 2003}} {
			a := dctBlockCovariance(t, field.name, field.seed)
			z := slices.Clone(a.Data())
			h := make([]float64, n)
			e := make([]float64, n)
			reduce(z, h, e)
			d := make([]float64, n)
			tred2Diagonal(z, d)
			cases[field.name] = tridiagonal{d, e}
		}
	}
	return cases
}

// norm1 is ‖T‖₁.
func (c tridiagonal) norm1() float64 {
	var nrm float64
	for i := range c.d {
		s := math.Abs(c.d[i]) + math.Abs(c.e[i])
		if i+1 < len(c.d) {
			s += math.Abs(c.e[i+1])
		}
		nrm = max(nrm, s)
	}
	return nrm
}

// solveDC runs tridiagonalEigen on c and returns the vectors (columns of
// the n×n q) and eigenvalues.
func solveDC(t testing.TB, c tridiagonal) (q, lam []float64) {
	t.Helper()
	n := len(c.d)
	q = make([]float64, n*n)
	lam = make([]float64, n)
	d, e := slices.Clone(c.d), slices.Clone(c.e)
	if err := tridiagonalEigen(d, e, q, lam, make([]float64, dcFloats(n)+n)); err != nil {
		t.Fatal(err)
	}
	if sameBits(d, c.d) != -1 || sameBits(e[1:], c.e[1:]) != -1 {
		t.Fatal("tridiagonalEigen modified its input")
	}
	return q, lam
}

// sturmEigenvalues returns c's eigenvalues, ascending, by bisection on
// Sturm counts to an absolute width of ε·‖T‖₁: an independent reference
// for the graded case, where the QL sweep exhausts its iteration budget.
func sturmEigenvalues(c tridiagonal) []float64 {
	n := len(c.d)
	nrm := c.norm1()
	below := func(x float64) int { // eigenvalues < x
		cnt := 0
		p := 1.0
		for i := 0; i < n; i++ {
			e2 := 0.0
			if i > 0 {
				e2 = c.e[i] * c.e[i]
			}
			p = c.d[i] - x - e2/p
			if p == 0 {
				p = -0x1p-1000
			}
			if p < 0 {
				cnt++
			}
		}
		return cnt
	}
	out := make([]float64, n)
	for r := range out {
		lo, hi := -nrm-1, nrm+1
		for hi-lo > 0x1p-52*nrm {
			mid := lo + (hi-lo)/2
			if mid <= lo || mid >= hi {
				break
			}
			if below(mid) > r {
				hi = mid
			} else {
				lo = mid
			}
		}
		out[r] = lo + (hi-lo)/2
	}
	return out
}

// checkDC holds the divide-and-conquer eigenpairs of c to the bounds a
// backward-stable solver meets: every residual ‖Tv − λv‖₂ within
// 64·n·ε·‖T‖₁ with λ the reference eigenvalue of the same rank,
// |VᵀV − I| within 64·n·ε, and every eigenvalue within 64·n·ε·‖T‖₁ of
// the reference. The reference is the QL iteration's eigenvalues, or
// the Sturm bisection's where the QL iteration does not converge.
func checkDC(t *testing.T, name string, c tridiagonal, q, lam []float64) {
	t.Helper()
	n := len(c.d)
	ref := slices.Clone(c.d)
	ev := slices.Clone(c.e)
	if err := tqli(ref, ev, nil); err != nil {
		ref = sturmEigenvalues(c)
	}
	sort.Float64s(ref)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lam[order[a]] < lam[order[b]] })
	orthTol := 64 * float64(n) * 0x1p-52
	tol := orthTol * c.norm1()
	v := make([]float64, n)
	for rank, col := range order {
		if d := math.Abs(lam[col] - ref[rank]); !(d <= tol) {
			t.Fatalf("%s: eigenvalue %d is %g from the QL iteration's, tolerance %g", name, rank, d, tol)
		}
		for i := range v {
			v[i] = q[i*n+col]
		}
		var rr float64
		for i := 0; i < n; i++ {
			r := (c.d[i] - ref[rank]) * v[i]
			if i > 0 {
				r += c.e[i] * v[i-1]
			}
			if i+1 < n {
				r += c.e[i+1] * v[i+1]
			}
			rr += r * r
		}
		if r := math.Sqrt(rr); !(r <= tol) {
			t.Fatalf("%s: vector %d has residual %g, tolerance %g", name, rank, r, tol)
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b <= a; b++ {
			var g float64
			for i := 0; i < n; i++ {
				g += q[i*n+a] * q[i*n+b]
			}
			if a == b {
				g--
			}
			if !(math.Abs(g) <= orthTol) {
				t.Fatalf("%s: vectors %d and %d are orthonormal to %g, tolerance %g", name, a, b, math.Abs(g), orthTol)
			}
		}
	}
}

// TestTridiagonalEigen holds every case at every order to checkDC's
// bounds.
func TestTridiagonalEigen(t *testing.T) {
	for _, n := range dcSizes {
		for name, c := range dcCases(t, n) {
			q, lam := solveDC(t, c)
			checkDC(t, fmt.Sprintf("%s n=%d", name, n), c, q, lam)
		}
	}
}

// TestSecularRootBracketed: every root of a secular equation lies
// strictly between its poles, leaves the secular function changing sign
// across it within a few ulps, and its deltas agree with the poles.
// The cases include poles a few ulps apart and weights spanning 150
// orders of magnitude, where the rational steps stall and bisection
// must finish.
func TestSecularRootBracketed(t *testing.T) {
	rng := rand.New(rand.NewSource(3100))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(40)
		d := make([]float64, k)
		w := make([]float64, k)
		x := rng.NormFloat64()
		for i := range d {
			switch trial % 3 {
			case 0:
				x += rng.Float64()
			case 1:
				x = math.Nextafter(x, math.Inf(1))
				x = math.Nextafter(x, math.Inf(1))
				x += float64(rng.Intn(2)) * rng.Float64()
			case 2:
				x += math.Pow(10, -rng.Float64()*12)
			}
			d[i] = x
			w[i] = math.Pow(10, -rng.Float64()*(3+float64(trial%3)*50)) * float64(1-2*rng.Intn(2))
		}
		var ww float64
		for _, v := range w {
			ww += v * v
		}
		for i := range w {
			w[i] /= math.Sqrt(ww)
		}
		ww = 1
		rho := math.Pow(10, rng.Float64()*4-2)
		f := func(lam float64) float64 {
			s := 1 / rho
			for i := range d {
				s += w[i] * w[i] / (d[i] - lam)
			}
			return s
		}
		delta := make([]float64, k)
		for j := 0; j < k; j++ {
			lam := secularRoot(j, d, w, rho, ww, delta)
			hi := d[k-1] + rho*ww
			if j+1 < k {
				hi = d[j+1]
			}
			// The root may round onto a pole a few ulps from the next;
			// its deltas must still carry the interlacing signs.
			if !(lam >= d[j] && lam <= hi) {
				t.Fatalf("trial %d root %d: %v outside [%v, %v]", trial, j, lam, d[j], hi)
			}
			for i := range d {
				if (delta[i] < 0) != (i <= j) || delta[i] == 0 {
					t.Fatalf("trial %d root %d: delta %d = %g has the wrong sign", trial, j, i, delta[i])
				}
				if r := math.Abs(delta[i] - (d[i] - lam)); r > 4*0x1p-52*math.Max(math.Abs(d[i]), math.Abs(lam)) {
					t.Fatalf("trial %d root %d: delta %d off by %g", trial, j, i, r)
				}
			}
			// f rises through zero: a few ulps either side it changes sign
			// (when those points stay inside the pole interval).
			below, above := lam, lam
			for s := 0; s < 64; s++ {
				below = math.Nextafter(below, math.Inf(-1))
				above = math.Nextafter(above, math.Inf(1))
			}
			if below > d[j] && f(below) > 0 {
				t.Errorf("trial %d root %d: f > 0 64 ulps below the root", trial, j)
			}
			if above < hi && f(above) < 0 {
				t.Errorf("trial %d root %d: f < 0 64 ulps above the root", trial, j)
			}
		}
	}
}

// FuzzTridiagonalEigen holds arbitrary tridiagonals to checkDC's
// bounds. data supplies (d, e) pairs as float64
// bits; the pattern repeats reps%8 more times, so short inputs still
// reach the merges. Non-finite and out-of-range entries are skipped.
func FuzzTridiagonalEigen(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 0, 2, 1, 3, 1), uint8(7))
	f.Add(seed(1, 2e-16, 1, 2e-16), uint8(7))
	f.Add(seed(10, 1, 9, 1, 8, 1, 7, 1e-14, 1e-300, 1), uint8(5))
	f.Add(seed(0, 0, 0, 0, 0, 1), uint8(6))
	f.Add(seed(-3, 1e-8, 5e-324, -2, 1e150, 1e-150), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, reps uint8) {
		var pat []float64
		for i := 0; i+8 <= len(data) && len(pat) < 400; i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				continue
			}
			pat = append(pat, v)
		}
		if len(pat) < 2 {
			return
		}
		pat = pat[:len(pat)&^1]
		var c tridiagonal
		for r := 0; r <= int(reps%8); r++ {
			for i := 0; i < len(pat); i += 2 {
				c.d = append(c.d, pat[i])
				c.e = append(c.e, pat[i+1])
			}
		}
		c.e[0] = 0
		q, lam := solveDC(t, c)
		checkDC(t, "fuzz", c, q, lam)
	})
}
