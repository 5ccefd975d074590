package sampling

import (
	"testing"

	"dpz/internal/dataset"
	"dpz/internal/mat"
	"dpz/internal/pca"
)

// BenchmarkVIF256x512 is the auto-standardize probe of the flat-spectrum
// benchmark workload: all 256 block features of a CLDHGH-like 256×512
// field, so the 256×256 correlation inverse dominates.
func BenchmarkVIF256x512(b *testing.B) {
	x := dctBlocks(b, dataset.CESM("CLDHGH", 256, 512, 2001))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VIF(x, 0.01, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowLinearity256x512 is the bound-first standardize decision on
// the 256×256 correlation matrices of both benchmark snapshot fields: the
// flat CLDHGH-like one and the low-rank PHIS-like one.
func BenchmarkLowLinearity256x512(b *testing.B) {
	for _, f := range []*dataset.Field{
		dataset.CESM("CLDHGH", 256, 512, 2001),
		dataset.CESM("PHIS", 256, 512, 2003),
	} {
		b.Run(f.Name, func(b *testing.B) {
			corr := mat.Correlation(dctBlocks(b, f))
			work := mat.NewDense(corr.Dims())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work.Data(), corr.Data())
				pca.LowLinearity(work)
			}
		})
	}
}
