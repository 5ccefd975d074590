package mat

import (
	"math"
	"testing"

	"dpz/internal/parallel"
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

// syrkIntoAxpy is SyrKInto as it was before the register-tiled Gram
// kernel, kept as a bit-exactness oracle: 64-column tile pairs, each
// accumulator row updated by an order-preserving Axpy per sample, exact-
// zero multipliers skipped, the lower triangle mirrored. Do not edit it.
func syrkIntoAxpy(out, a *Dense, workers int) {
	const syrkBlock = 64
	c := a.cols
	r := a.rows
	nb := (c + syrkBlock - 1) / syrkBlock
	type pair struct{ jb, kb int }
	pairs := make([]pair, 0, nb*(nb+1)/2)
	for jb := 0; jb < nb; jb++ {
		for kb := jb; kb < nb; kb++ {
			pairs = append(pairs, pair{jb, kb})
		}
	}
	if r*c*c < 1<<16 {
		workers = 1
	}
	parallel.For(len(pairs), workers, func(pi int) {
		p := pairs[pi]
		j0, j1 := p.jb*syrkBlock, min((p.jb+1)*syrkBlock, c)
		k0, k1 := p.kb*syrkBlock, min((p.kb+1)*syrkBlock, c)
		jw, kw := j1-j0, k1-k0
		acc := make([]float64, jw*kw)
		diag := p.jb == p.kb
		for i := 0; i < r; i++ {
			row := a.data[i*c:]
			aj := row[j0:j1]
			ak := row[k0:k1]
			for jj, v := range aj {
				if v == 0 {
					continue
				}
				dst := acc[jj*kw:]
				if diag {
					Axpy(dst[jj:], ak[jj:kw], v)
					continue
				}
				Axpy(dst, ak, v)
			}
		}
		for jj := 0; jj < jw; jj++ {
			kkStart := 0
			if diag {
				kkStart = jj
			}
			orow := out.data[(j0+jj)*c:]
			for kk := kkStart; kk < kw; kk++ {
				orow[k0+kk] = acc[jj*kw+kk]
			}
		}
	})
	for j := 1; j < c; j++ {
		for k := 0; k < j; k++ {
			out.data[j*c+k] = out.data[k*c+j]
		}
	}
}

// covarianceAxpy is CovarianceCenteredInto as it was before it centered
// into the feature-major layout: center row-major, syrkIntoAxpy, divide.
func covarianceAxpy(cov, m *Dense, means, stds []float64) {
	r, c := m.rows, m.cols
	den := float64(r - 1)
	if den <= 0 {
		den = 1
	}
	centered := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := m.data[i*c+j] - means[j]
			if stds != nil {
				v /= stds[j]
			}
			centered.data[i*c+j] = v
		}
	}
	syrkIntoAxpy(cov, centered, 1)
	for i := range cov.data {
		cov.data[i] /= den
	}
}

// gramTestMatrix is an r×c Gaussian matrix whose column 1 (when it
// exists) is all zero and column 2 constant, with scattered exact zeros
// elsewhere — the inputs the old kernel's zero skip saw.
func gramTestMatrix(r, c int, seed int64) *Dense {
	a := randomDense(r, c, seed)
	for i := 0; i < r; i++ {
		if c > 1 {
			a.Set(i, 1, 0)
		}
		if c > 2 {
			a.Set(i, 2, 3.25)
		}
		if c > 3 && i%5 == 0 {
			a.Set(i, 3, 0)
		}
	}
	return a
}

// TestGramMatchesAxpyKernelBits pins the register-tiled Gram kernel to
// the frozen axpy kernel bit for bit, through both SyrKInto and
// CovarianceCenteredInto (plain and correlation-scaled): every tile edge
// and remainder, odd and even feature counts, tiny and tall sample
// counts, and worker counts that split the row-pair items unevenly.
func TestGramMatchesAxpyKernelBits(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 63, 64, 65, 127, 256, 257}
	same := func(got, want *Dense) int {
		for i, v := range got.data {
			if math.Float64bits(v) != math.Float64bits(want.data[i]) {
				return i
			}
		}
		return -1
	}
	for _, r := range sizes {
		for _, c := range sizes {
			a := gramTestMatrix(r, c, int64(1000*r+c))
			want := NewDense(c, c)
			syrkIntoAxpy(want, a, 1)
			means := ColMeans(a)
			stds := ColStds(a, means)
			wantCov, wantCorr := NewDense(c, c), NewDense(c, c)
			covarianceAxpy(wantCov, a, means, nil)
			covarianceAxpy(wantCorr, a, means, stds)
			for _, w := range []int{1, 2, 8} {
				got := NewDense(c, c)
				SyrKInto(got, a, w)
				if i := same(got, want); i >= 0 {
					t.Fatalf("SyrKInto %dx%d workers=%d: entry %d = %v, axpy kernel %v", r, c, w, i, got.data[i], want.data[i])
				}
				CovarianceCenteredInto(got, a, means, nil, w)
				if i := same(got, wantCov); i >= 0 {
					t.Fatalf("covariance %dx%d workers=%d: entry %d = %v, axpy kernel %v", r, c, w, i, got.data[i], wantCov.data[i])
				}
				CovarianceCenteredInto(got, a, means, stds, w)
				if i := same(got, wantCorr); i >= 0 {
					t.Fatalf("correlation %dx%d workers=%d: entry %d = %v, axpy kernel %v", r, c, w, i, got.data[i], wantCorr.data[i])
				}
			}
		}
	}
}
