package mat

import (
	"testing"
)

// naiveMul is the reference A·B in the plain triple loop.
func naiveMul(a, b *Dense) *Dense {
	ar, ac := a.Dims()
	_, bc := b.Dims()
	out := NewDense(ar, bc)
	for i := 0; i < ar; i++ {
		for j := 0; j < bc; j++ {
			var s float64
			for k := 0; k < ac; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// gemmShapes straddle the 4-wide jam edge (reduction dims ≡ 0..3 mod 4)
// and the small-input serial cutoff.
var gemmShapes = [][3]int{
	{3, 4, 2}, {5, 7, 3}, {16, 16, 16}, {33, 65, 9},
	{40, 121, 17}, {130, 96, 31}, {64, 258, 40}, {200, 131, 64},
}

func TestGemmIntoMatchesNaive(t *testing.T) {
	for _, s := range gemmShapes {
		a := randomDense(s[0], s[1], int64(s[0]+7*s[1]))
		b := randomDense(s[1], s[2], int64(s[2]+13*s[1]))
		out := NewDense(s[0], s[2])
		GemmInto(out, a, b, 3)
		if !Equal(out, naiveMul(a, b), 1e-9) {
			t.Fatalf("GemmInto mismatch for %v", s)
		}
	}
}

// The jammed kernel promises bit-identical output for every worker count
// and across repeated runs: each output row is owned by one worker and
// accumulates in a fixed jammed order.
func TestGemmIntoByteIdenticalAcrossWorkers(t *testing.T) {
	a := randomDense(301, 190, 42)
	b := randomDense(190, 57, 43)
	base := NewDense(301, 57)
	GemmInto(base, a, b, 1)
	for _, w := range []int{1, 2, 3, 8} {
		for rep := 0; rep < 2; rep++ {
			out := NewDense(301, 57)
			GemmInto(out, a, b, w)
			for i, v := range out.Data() {
				if v != base.Data()[i] {
					t.Fatalf("workers=%d rep=%d: entry %d differs: %v vs %v", w, rep, i, v, base.Data()[i])
				}
			}
		}
	}
}

// The kernel must zero the output rows itself: pooled scratch
// buffers arrive dirty.
func TestGemmIntoOverwritesDirtyOutput(t *testing.T) {
	a := randomDense(37, 21, 46)
	b := randomDense(21, 9, 47)
	want := NewDense(37, 9)
	GemmInto(want, a, b, 1)
	dirty := NewDense(37, 9)
	for i := range dirty.Data() {
		dirty.Data()[i] = 1e30
	}
	GemmInto(dirty, a, b, 2)
	for i, v := range dirty.Data() {
		if v != want.Data()[i] {
			t.Fatalf("dirty output leaked into entry %d: %v vs %v", i, v, want.Data()[i])
		}
	}
}

func TestGemmIntoShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { GemmInto(NewDense(2, 2), NewDense(2, 3), NewDense(4, 2), 1) },
		func() { GemmInto(NewDense(3, 2), NewDense(2, 3), NewDense(3, 2), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("shape mismatch must panic")
				}
			}()
			f()
		}()
	}
}

// BenchmarkGemmInto multiplies at dpzbench's Stage 2 size (M=900 features)
// by a tall-skinny operand 172 columns wide.
func BenchmarkGemmInto(b *testing.B) {
	a := randomDense(1800, 900, 1)
	w := randomDense(900, 172, 2)
	out := NewDense(1800, 172)
	b.SetBytes(2 * 1800 * 900 * 172)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmInto(out, a, w, 1)
	}
}
