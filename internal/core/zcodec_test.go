package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"dpz/internal/parallel"
)

// codecPayload builds a compressible-but-not-trivial byte pattern.
func codecPayload(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i*7 + i/255)
	}
	return buf
}

// deflateSection is the test-side reference encoder for the section
// payload framing: one section at a time, sharding large sections and
// choosing stored or deflated units exactly as encodeContainer's
// flattened job list does.
func deflateSection(sec []byte, level, workers int) []byte {
	spans := shardSpans(len(sec))
	if spans == nil {
		return packUnit(sec, level)
	}
	comp := make([][]byte, len(spans))
	parallel.For(len(spans), workers, func(i int) {
		comp[i] = packUnit(sec[spans[i].off:spans[i].end], level)
	})
	return assembleShards(spans, comp)
}

func TestDeflateSectionRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 100, shardRawSize - 1, shardRawSize, shardRawSize + 1,
		2 * shardRawSize, 3*shardRawSize + 17}
	for _, n := range sizes {
		raw := codecPayload(n)
		ref := deflateSection(raw, -1, 1)
		if got, want := isSharded(ref), n > shardRawSize; got != want {
			t.Fatalf("size %d: isSharded = %v, want %v", n, got, want)
		}
		for _, w := range []int{2, 3, 8} {
			if alt := deflateSection(raw, -1, w); !bytes.Equal(alt, ref) {
				t.Fatalf("size %d: %d-worker payload differs from serial", n, w)
			}
		}
		for _, w := range []int{1, 4} {
			out, err := inflateSection(context.Background(), ref, n, w)
			if err != nil {
				t.Fatalf("size %d workers %d: %v", n, w, err)
			}
			if !bytes.Equal(out, raw) {
				t.Fatalf("size %d workers %d: roundtrip mismatch", n, w)
			}
		}
	}
}

func TestDeflateSectionLevels(t *testing.T) {
	raw := codecPayload(shardRawSize + 500)
	fast := deflateSection(raw, 1, 2)
	best := deflateSection(raw, 9, 2)
	for name, payload := range map[string][]byte{"fast": fast, "best": best} {
		out, err := inflateSection(context.Background(), payload, len(raw), 2)
		if err != nil || !bytes.Equal(out, raw) {
			t.Fatalf("%s level roundtrip: %v", name, err)
		}
	}
}

func TestInflateSectionCorrupt(t *testing.T) {
	raw := codecPayload(shardRawSize + 100)
	good := deflateSection(raw, -1, 2)

	cases := map[string]func() ([]byte, int){
		"truncated table": func() ([]byte, int) { return good[:6], len(raw) },
		"zero shards": func() ([]byte, int) {
			bad := append([]byte(nil), good...)
			bad[4], bad[5], bad[6], bad[7] = 0, 0, 0, 0
			return bad, len(raw)
		},
		"huge shard count": func() ([]byte, int) {
			bad := append([]byte(nil), good...)
			bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0xFF
			return bad, len(raw)
		},
		"raw overrun": func() ([]byte, int) { return good, len(raw) - 1 },
		"trailing bytes": func() ([]byte, int) {
			return append(append([]byte(nil), good...), 0x00), len(raw)
		},
		"corrupt shard body": func() ([]byte, int) {
			bad := append([]byte(nil), good...)
			bad[len(bad)-10] ^= 0xFF
			return bad, len(raw)
		},
	}
	for name, mk := range cases {
		bad, rawLen := mk()
		if _, err := inflateSection(context.Background(), bad, rawLen, 2); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
}

// shardedStream compresses a field big enough to force score-section
// sharding (raw score sections of N float32 > shardRawSize).
func shardedStream(t *testing.T, workers int) (*Compressed, []float64, []int) {
	t.Helper()
	dims := []int{1024, 2048}
	data := make([]float64, dims[0]*dims[1])
	for i := range data {
		data[i] = math.Sin(float64(i)*0.001) + 0.1*math.Cos(float64(i)*0.037)
	}
	p := DPZL()
	p.MaxBlocks = 4 // N = len/4 = 2^19 samples => 2 MiB score sections
	p.Workers = workers
	c, err := Compress(data, dims, p)
	if err != nil {
		t.Fatal(err)
	}
	return c, data, dims
}

func TestShardedStreamEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("2M-value compression")
	}
	ref, data, _ := shardedStream(t, 1)
	for _, w := range []int{2, 8} {
		alt, _, _ := shardedStream(t, w)
		if !bytes.Equal(alt.Bytes, ref.Bytes) {
			t.Fatalf("%d-worker stream differs from serial", w)
		}
	}

	_, secs, err := walkV2(ref.Bytes, false)
	if err != nil {
		t.Fatal(err)
	}
	sharded := 0
	for _, s := range secs {
		if isSharded(s.comp) {
			sharded++
		}
	}
	if sharded == 0 {
		t.Fatal("no sharded sections in a 2 MiB-per-section stream")
	}

	if err := Verify(ref.Bytes); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for _, w := range []int{1, 8} {
		out, dims, err := Decompress(ref.Bytes, w)
		if err != nil {
			t.Fatalf("decompress workers=%d: %v", w, err)
		}
		if len(out) != len(data) || dims[0] != 1024 {
			t.Fatalf("decompress workers=%d: got %d values dims %v", w, len(out), dims)
		}
		// The quantizer bound is relative to the value range.
		lo, hi := data[0], data[0]
		for _, v := range data {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		maxErr := 0.0
		for i := range out {
			maxErr = math.Max(maxErr, math.Abs(out[i]-data[i]))
		}
		if maxErr > 0.5*(hi-lo) {
			t.Fatalf("workers=%d: implausible reconstruction error %g", w, maxErr)
		}
	}

	// A flipped byte inside a sharded payload must fail Verify, and the
	// best-effort decoder must still salvage the untouched components.
	bad := append([]byte(nil), ref.Bytes...)
	bad[len(bad)-12] ^= 0x40
	if err := Verify(bad); err == nil {
		t.Fatal("Verify accepted a corrupt sharded stream")
	}
	if out, _, err := DecompressBestEffort(bad, 0); err == nil {
		t.Fatal("best-effort decode reported no corruption")
	} else if out == nil {
		t.Fatalf("best-effort decode salvaged nothing: %v", err)
	}
}
