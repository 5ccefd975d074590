package pca

import (
	"math/rand"
	"testing"
)

func BenchmarkFit360x180(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankData(360, 180, 20, 0.1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(x, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectrum360x180(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := lowRankData(360, 180, 20, 0.1, rng)
	for i := 0; i < b.N; i++ {
		if _, _, err := Spectrum(x, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
