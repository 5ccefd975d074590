package mat

import (
	"math"
	"testing"
)

// gemmIntoOneRow is GemmInto as it was before output rows were paired,
// kept as a bit-exactness oracle (serial; the worker count never changed
// its bits): every output row sweeps all of b on its own.
func gemmIntoOneRow(out, a, b *Dense) {
	kj := a.cols &^ 3
	bc := b.cols
	for i := 0; i < a.rows; i++ {
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for x := range orow {
			orow[x] = 0
		}
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for k := 0; k < kj; k += 4 {
			axpy4(orow,
				b.data[k*bc:(k+1)*bc],
				b.data[(k+1)*bc:(k+2)*bc],
				b.data[(k+2)*bc:(k+3)*bc],
				b.data[(k+3)*bc:(k+4)*bc],
				arow[k], arow[k+1], arow[k+2], arow[k+3])
		}
		for k := kj; k < a.cols; k++ {
			Axpy(orow, b.data[k*bc:(k+1)*bc], arow[k])
		}
	}
}

// TestGemmIntoPairedRowsMatchOneRowBits pins the row pairing to the
// one-row kernel bit for bit: odd and even row counts, worker counts that
// split chunks at odd rows, every reduction length mod 4, and the decode
// recompose shapes (flat k≈M and low rank).
func TestGemmIntoPairedRowsMatchOneRowBits(t *testing.T) {
	shapes := append([][3]int{{1, 5, 7}, {2, 3, 9}, {7, 255, 33}, {256, 255, 512}, {256, 43, 512}}, gemmShapes...)
	for _, s := range shapes {
		a := randomDense(s[0], s[1], int64(3*s[0]+s[1]))
		b := randomDense(s[1], s[2], int64(5*s[2]+s[1]))
		want := NewDense(s[0], s[2])
		gemmIntoOneRow(want, a, b)
		for _, w := range []int{1, 2, 3, 8} {
			got := NewDense(s[0], s[2])
			GemmInto(got, a, b, w)
			for i, v := range got.data {
				if math.Float64bits(v) != math.Float64bits(want.data[i]) {
					t.Fatalf("shape %v workers=%d: element %d = %v, one-row kernel %v", s, w, i, v, want.data[i])
				}
			}
		}
	}
}
