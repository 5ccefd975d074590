package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d, want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestNewDensePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseDataPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At(1,2) = %v, want 42.5", got)
	}
	if got := m.Row(1)[2]; got != 42.5 {
		t.Fatalf("Row(1)[2] = %v, want 42.5", got)
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("transpose dims = %d,%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeLargeBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewDense(130, 70)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	tr := m.T()
	trtr := tr.T()
	if !Equal(m, trtr, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewDense(5, 5)
	for i := range a.Data() {
		a.Data()[i] = rng.Float64()
	}
	id := NewDense(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if got := Mul(a, id); !Equal(a, got, 1e-15) {
		t.Fatal("A·I != A")
	}
	if got := Mul(id, a); !Equal(a, got, 1e-15) {
		t.Fatal("I·A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got.Data(), want.Data())
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulLargeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewDense(120, 90)
	b := NewDense(90, 110)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	for i := range b.Data() {
		b.Data()[i] = rng.NormFloat64()
	}
	got := Mul(a, b)
	// Naive reference.
	want := NewDense(120, 110)
	for i := 0; i < 120; i++ {
		for j := 0; j < 110; j++ {
			var s float64
			for k := 0; k < 90; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !Equal(got, want, 1e-9) {
		t.Fatal("parallel multiply disagrees with naive reference")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestColMeansAndStds(t *testing.T) {
	m := NewDenseData(4, 2, []float64{
		1, 10,
		2, 10,
		3, 10,
		4, 10,
	})
	means := ColMeans(m)
	if means[0] != 2.5 || means[1] != 10 {
		t.Fatalf("means = %v", means)
	}
	stds := ColStds(m, means)
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(stds[0]-want) > 1e-12 {
		t.Fatalf("std[0] = %v, want %v", stds[0], want)
	}
	// Constant column must report std 1 (standardization no-op), not 0.
	if stds[1] != 1 {
		t.Fatalf("constant column std = %v, want 1", stds[1])
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated features: cov matrix is [[v, v],[v, v]].
	m := NewDenseData(4, 2, []float64{
		1, 2,
		2, 4,
		3, 6,
		4, 8,
	})
	cov, means := Covariance(m)
	if means[0] != 2.5 || means[1] != 5 {
		t.Fatalf("means = %v", means)
	}
	v := cov.At(0, 0)
	if math.Abs(v-5.0/3.0) > 1e-12 {
		t.Fatalf("var[0] = %v, want %v", v, 5.0/3.0)
	}
	if math.Abs(cov.At(0, 1)-2*v) > 1e-12 || math.Abs(cov.At(1, 0)-2*v) > 1e-12 {
		t.Fatalf("cov off-diagonal = %v, want %v", cov.At(0, 1), 2*v)
	}
	if math.Abs(cov.At(1, 1)-4*v) > 1e-12 {
		t.Fatalf("var[1] = %v, want %v", cov.At(1, 1), 4*v)
	}
}

func TestCorrelationPerfect(t *testing.T) {
	m := NewDenseData(5, 2, []float64{
		1, -1,
		2, -2,
		3, -3,
		4, -4,
		5, -5,
	})
	corr := Correlation(m)
	if math.Abs(corr.At(0, 0)-1) > 1e-12 || math.Abs(corr.At(1, 1)-1) > 1e-12 {
		t.Fatalf("diagonal = %v, %v, want 1", corr.At(0, 0), corr.At(1, 1))
	}
	if math.Abs(corr.At(0, 1)+1) > 1e-12 {
		t.Fatalf("corr(0,1) = %v, want -1", corr.At(0, 1))
	}
}

func TestCovarianceSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 5 + rng.Intn(30)
		c := 2 + rng.Intn(10)
		m := NewDense(r, c)
		for i := range m.Data() {
			m.Data()[i] = rng.NormFloat64() * 10
		}
		cov, _ := Covariance(m)
		for i := 0; i < c; i++ {
			if cov.At(i, i) < -1e-12 {
				return false
			}
			for j := 0; j < c; j++ {
				if math.Abs(cov.At(i, j)-cov.At(j, i)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	// Build an SPD matrix A = BᵀB + I.
	rng := rand.New(rand.NewSource(7))
	n := 12
	b := NewDense(n, n)
	for i := range b.Data() {
		b.Data()[i] = rng.NormFloat64()
	}
	a := Mul(b.T(), b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := Mul(l, l.T())
	if !Equal(a, recon, 1e-8) {
		t.Fatal("LLᵀ != A")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestCholeskySolve(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		4, 2, 0,
		2, 5, 1,
		0, 1, 3,
	})
	x := []float64{1, -2, 3}
	bv := MulVec(a, x)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := CholeskySolve(l, bv)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-10 {
			t.Fatalf("solve[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestSPDInverseDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 9, 40} {
		b := NewDense(n, n)
		for i := range b.Data() {
			b.Data()[i] = rng.NormFloat64()
		}
		a := Mul(b.T(), b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+2)
		}
		diag, err := SPDInverseDiag(a)
		if err != nil {
			t.Fatal(err)
		}
		// The full inverse, one CholeskySolve per column: its diagonal
		// is what SPDInverseDiag must reproduce bit for bit.
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		inv := NewDense(n, n)
		for j := 0; j < n; j++ {
			e := make([]float64, n)
			e[j] = 1
			inv.SetCol(j, CholeskySolve(l, e))
		}
		id := NewDense(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		if !Equal(Mul(a, inv), id, 1e-8) {
			t.Fatalf("n=%d: A·A⁻¹ != I", n)
		}
		for j, v := range diag {
			if math.Float64bits(v) != math.Float64bits(inv.At(j, j)) {
				t.Fatalf("n=%d: diag[%d] = %v, full inverse has %v", n, j, v, inv.At(j, j))
			}
		}
	}
	if _, err := SPDInverseDiag(NewDenseData(2, 2, []float64{1, 2, 2, 1})); err == nil {
		t.Fatal("indefinite matrix must be rejected")
	}
}

func TestColRoundTrip(t *testing.T) {
	m := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	col := m.Col(1, nil)
	if col[0] != 2 || col[1] != 4 || col[2] != 6 {
		t.Fatalf("Col(1) = %v", col)
	}
	m.SetCol(0, []float64{9, 8, 7})
	if m.At(0, 0) != 9 || m.At(2, 0) != 7 {
		t.Fatal("SetCol did not write")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// TestMulIntoWorkersBitIdentical: the worker bound only splits output
// rows, so every bound gives the serial product's bits, on shapes below
// and above the parallel cutoff and on odd row counts.
func TestMulIntoWorkersBitIdentical(t *testing.T) {
	for _, s := range [][3]int{{3, 4, 5}, {65, 33, 17}, {512, 256, 42}, {257, 255, 254}} {
		a := randomDense(s[0], s[1], int64(s[0]+s[1]))
		b := randomDense(s[1], s[2], int64(s[1]+s[2]))
		want := NewDense(s[0], s[2])
		MulInto(want, a, b, 1)
		for _, w := range []int{2, 8} {
			got := NewDense(s[0], s[2])
			MulInto(got, a, b, w)
			for i, v := range got.Data() {
				if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
					t.Fatalf("%v workers=%d: element %d = %v, serial %v", s, w, i, v, want.Data()[i])
				}
			}
		}
	}
}
