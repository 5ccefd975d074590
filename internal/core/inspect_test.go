package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// inspectField builds a small, deterministic compressible field.
func inspectField(rows, cols int) ([]float64, []int) {
	data := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			data[r*cols+c] = math.Sin(float64(r)/7) + 0.5*math.Cos(float64(c)/11)
		}
	}
	return data, []int{rows, cols}
}

func TestInspectMatchesCompression(t *testing.T) {
	data, dims := inspectField(64, 96)
	c, err := Compress(data, dims, Default())
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	info, err := Inspect(c.Bytes)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if info.Version != formatVersion {
		t.Errorf("Version = %d, want %d", info.Version, formatVersion)
	}
	if len(info.Dims) != 2 || info.Dims[0] != 64 || info.Dims[1] != 96 {
		t.Errorf("Dims = %v, want [64 96]", info.Dims)
	}
	if info.Values != len(data) {
		t.Errorf("Values = %d, want %d", info.Values, len(data))
	}
	if info.Blocks != c.Stats.M || info.BlockLen != c.Stats.N || info.Components != c.Stats.K {
		t.Errorf("shape %d/%d/%d, want %d/%d/%d",
			info.Blocks, info.BlockLen, info.Components, c.Stats.M, c.Stats.N, c.Stats.K)
	}
	if info.Transform != "dct" {
		t.Errorf("Transform = %q, want dct", info.Transform)
	}
	if info.StreamBytes != len(c.Bytes) {
		t.Errorf("StreamBytes = %d, want %d", info.StreamBytes, len(c.Bytes))
	}
	if got, want := info.CompressionRatio, c.Stats.CRTotal; math.Abs(got-want) > 1e-9 {
		t.Errorf("CompressionRatio = %v, want %v", got, want)
	}
	wantSecs := sectionCount(header{flags: boolFlag(info.Standardized), k: info.Components}, info.Version)
	if len(info.Sections) != wantSecs {
		t.Errorf("%d sections, want %d", len(info.Sections), wantSecs)
	}
	if info.Sections[0].Name != "means" {
		t.Errorf("section 0 = %q, want means", info.Sections[0].Name)
	}
	if last := info.Sections[len(info.Sections)-1]; last.Name != "index" {
		t.Errorf("last section = %q, want index", last.Name)
	}
	if !info.HasIndex || info.IndexTiles != 1 {
		t.Errorf("HasIndex/IndexTiles = %v/%d, want true/1", info.HasIndex, info.IndexTiles)
	}
	if n := len(info.RankCumulativeEnergy); n != info.Components {
		t.Errorf("RankCumulativeEnergy has %d entries, want %d", n, info.Components)
	} else if math.Abs(info.RankCumulativeEnergy[n-1]-1) > 1e-9 {
		t.Errorf("cumulative energy tops out at %v, want 1", info.RankCumulativeEnergy[n-1])
	}
	var raw int
	for _, s := range info.Sections {
		if s.RawBytes <= 0 || s.CompressedBytes <= 0 {
			t.Errorf("section %q has empty sizes: %+v", s.Name, s)
		}
		raw += s.RawBytes
	}
	if raw != info.PayloadRawBytes {
		t.Errorf("PayloadRawBytes = %d, sections sum to %d", info.PayloadRawBytes, raw)
	}
}

func boolFlag(std bool) uint8 {
	if std {
		return flagStandardized
	}
	return 0
}

func TestInspectRejectsGarbage(t *testing.T) {
	if _, err := Inspect([]byte("not a dpz stream at all")); err == nil {
		t.Fatal("Inspect accepted garbage")
	}
	data, dims := inspectField(32, 48)
	c, err := Compress(data, dims, Default())
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if _, err := Inspect(c.Bytes[:len(c.Bytes)-3]); err == nil {
		t.Fatal("Inspect accepted a truncated stream")
	}
	// A flipped header byte must fail the v2 header CRC.
	mut := append([]byte(nil), c.Bytes...)
	mut[9] ^= 0x01
	if _, err := Inspect(mut); err == nil {
		t.Fatal("Inspect accepted a header-corrupted stream")
	}
}

func TestCompressContextPreCancelled(t *testing.T) {
	data, dims := inspectField(32, 48)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompressContext(ctx, data, dims, Default()); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompressContext err = %v, want context.Canceled", err)
	}
}

func TestDecompressContextPreCancelled(t *testing.T) {
	data, dims := inspectField(32, 48)
	c, err := Compress(data, dims, Default())
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Decompress(ctx, c.Bytes, 0, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decompress err = %v, want context.Canceled", err)
	}
}

// TestCompressContextCancelMidway cancels shortly after the pipeline
// starts; a compression of this size takes far longer than the cancel
// delay, so the call must return ctx.Err() instead of a result.
func TestCompressContextCancelMidway(t *testing.T) {
	data, dims := inspectField(256, 512)
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	_, err := CompressContext(ctx, data, dims, Default())
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("CompressContext err = %v, want nil or context.Canceled", err)
	}
	// The race between cancel and completion is inherent; the assertion
	// that matters is above (no non-ctx error) plus the determinism check:
	// an uncancelled context still produces a full result.
	if res, err := CompressContext(context.Background(), data, dims, Default()); err != nil || len(res.Bytes) == 0 {
		t.Fatalf("uncancelled CompressContext: %v", err)
	}
}
