package sampling

import (
	"testing"

	"dpz/internal/dataset"
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
