package core

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"dpz/internal/dataset"
)

// flateWriters pools compress/zlib writers per level (index level+1),
// as the zlib stage did before it had its own writer.
var flateWriters [11]sync.Pool

// flateUnit is the compress/zlib oracle: buf deflated at a zlib level
// (−1 through 9) by a pooled, reset compress/zlib writer.
func flateUnit(buf []byte, level int) []byte {
	var out bytes.Buffer
	w, _ := flateWriters[level+1].Get().(*zlib.Writer)
	if w == nil {
		var err error
		if w, err = zlib.NewWriterLevel(&out, level); err != nil {
			panic(err)
		}
	} else {
		w.Reset(&out)
	}
	if _, err := w.Write(buf); err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	flateWriters[level+1].Put(w)
	return out.Bytes()
}

// flatePackUnit is packUnit with compress/zlib as its deflater: stored
// blocks when the entropy estimate says so or when flate's stream is no
// smaller, flate's stream otherwise.
func flatePackUnit(buf []byte, level int) []byte {
	if len(buf) > 0 && entropyBytes(buf) >= float64(len(buf)) {
		return storedZlib(buf)
	}
	if out := flateUnit(buf, level); len(out) < storedZlibLen(len(buf)) {
		return out
	}
	return storedZlib(buf)
}

// checkDeflateUnit asserts deflateUnit(raw, level) is no longer than
// stored blocks and inflates back to raw through compress/zlib and
// through inflateInto.
func checkDeflateUnit(t *testing.T, raw []byte, level int) []byte {
	t.Helper()
	out := deflateUnit(raw, level)
	if len(out) > storedZlibLen(len(raw)) {
		t.Fatalf("len %d level %d: %d bytes, stored blocks take %d", len(raw), level, len(out), storedZlibLen(len(raw)))
	}
	r, err := zlib.NewReader(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("len %d level %d: zlib open: %v", len(raw), level, err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("len %d level %d: compress/zlib round trip differs (err %v)", len(raw), level, err)
	}
	got = make([]byte, len(raw))
	if err := inflateInto(got, out); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("len %d level %d: inflateInto round trip differs (err %v)", len(raw), level, err)
	}
	return out
}

// deflateInputs spans the block types and block splits: empty and tiny
// units, skewed bytes (fixed and dynamic codes), long repeats (matches
// at every length and distance), random bytes (stored), and units of
// more than blockTokens tokens and of more than one stored block.
func deflateInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(3))
	skewed := make([]byte, 5000)
	for i := range skewed {
		skewed[i] = byte(rng.ExpFloat64() * 6)
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 2000)
	runs := make([]byte, 0, 100_000)
	for len(runs) < cap(runs)-600 {
		runs = append(runs, bytes.Repeat([]byte{byte(rng.Intn(4))}, 1+rng.Intn(600))...)
	}
	wide := make([]byte, 200_000) // literals and far matches past one block
	for i := range wide {
		if i >= 40_000 && rng.Intn(3) > 0 {
			wide[i] = wide[i-1-rng.Intn(32_000)]
		} else {
			wide[i] = byte(rng.Intn(256))
		}
	}
	return map[string][]byte{
		"empty":    {},
		"one":      {42},
		"three":    {1, 1, 1},
		"constant": bytes.Repeat([]byte{7}, 70_000),
		"skewed":   skewed,
		"text":     text,
		"runs":     runs,
		"pattern":  codecPayload(shardRawSize),
		"random":   randomBytes(maxStoredBlock+10, 5),
		"wide":     wide,
	}
}

func TestDeflateUnitRoundTrip(t *testing.T) {
	for name, raw := range deflateInputs() {
		for level := -1; level <= 9; level++ {
			t.Run(fmt.Sprintf("%s/level%d", name, level), func(t *testing.T) {
				checkDeflateUnit(t, raw, level)
			})
		}
	}
}

// TestDeflateUnitNoTrailingBlock: a unit ends on its last data block, so
// a short skewed unit fits in one block and the empty unit in a 2-byte
// fixed block (header, end of block, padding).
func TestDeflateUnitNoTrailingBlock(t *testing.T) {
	if out := deflateUnit(nil, -1); len(out) != 2+2+4 {
		t.Fatalf("empty unit: %d bytes %x, want 8", len(out), out)
	}
	raw := deflateInputs()["skewed"][:600]
	out := deflateUnit(raw, -1)
	if got := out[2] & 1; got != 1 {
		t.Fatalf("first block of a 600-byte unit is not final (BFINAL %d)", got)
	}
	if ref := flateUnit(raw, -1); len(out) >= len(ref) {
		t.Fatalf("600 skewed bytes: %d bytes, compress/zlib writes %d", len(out), len(ref))
	}
}

// TestHuffmanLengthLimit: Fibonacci weights force an unlimited code far
// past the limit; the limited code must stay within it and be complete.
func TestHuffmanLengthLimit(t *testing.T) {
	for _, limit := range []int{maxCLBits, maxLitBits} {
		freq := make([]int32, numLitLen)
		a, b := int32(1), int32(1)
		for i := 0; i < 30; i++ {
			freq[i*3] = a
			a, b = b, a+b
		}
		var h huffCode
		var hb huffBuilder
		hb.build(&h, freq, limit)
		kraft := 0
		for s, l := range h.len[:numLitLen] {
			if (l == 0) != (freq[s] == 0) || int(l) > limit {
				t.Fatalf("limit %d: symbol %d (freq %d) has length %d", limit, s, freq[s], l)
			}
			if l > 0 {
				kraft += 1 << (limit - int(l))
			}
		}
		if kraft != 1<<limit {
			t.Fatalf("limit %d: Kraft sum %d/%d, want a complete code", limit, kraft, 1<<limit)
		}
	}
}

// FuzzDeflateUnit: any bytes at any ZLevel deflate to a stream no
// longer than stored blocks that inflates back through compress/zlib
// and inflateInto.
func FuzzDeflateUnit(f *testing.F) {
	for _, raw := range deflateInputs() {
		if len(raw) <= 1<<14 {
			f.Add(raw, uint8(0))
		}
	}
	f.Add(deflateInputs()["skewed"][:600], uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, zlevel uint8) {
		p := Params{ZLevel: int(zlevel % 10)}
		checkDeflateUnit(t, raw, p.zlibLevel())
	})
}

// flatScoreSections returns the score sections of the flat 256×512
// CLDHGH stream (DPZL, k=254 of M=256), raw.
func flatScoreSections(b testing.TB) [][]byte {
	f := dataset.CESM("CLDHGH", 256, 512, 2001)
	c, err := Compress(f.Data, f.Dims, DPZL())
	if err != nil {
		b.Fatal(err)
	}
	return splitSections(inflatedSections(b, c.Bytes)).scores
}

// unitsSink keeps the benchmarked units alive.
var unitsSink int

// BenchmarkDeflateUnits packs every score section of the flat 256×512
// CLDHGH stream at ZLevel 0, through deflateUnit ("dpz") and through a
// pooled compress/zlib writer ("flate"), each behind packUnit's entropy
// gate and stored fallback; it reports the packed bytes per op.
func BenchmarkDeflateUnits(b *testing.B) {
	secs := flatScoreSections(b)
	raw := 0
	for _, s := range secs {
		raw += len(s)
	}
	level := (&Params{}).zlibLevel()
	for _, w := range []struct {
		name string
		pack func([]byte, int) []byte
	}{{"dpz", packUnit}, {"flate", flatePackUnit}} {
		b.Run(w.name, func(b *testing.B) {
			b.SetBytes(int64(raw))
			b.ReportAllocs()
			packed := 0
			for i := 0; i < b.N; i++ {
				packed = 0
				for _, s := range secs {
					packed += len(w.pack(s, level))
				}
			}
			unitsSink = packed
			b.ReportMetric(float64(packed), "packed-bytes/op")
		})
	}
}
