package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"dpz/internal/stats"
)

// compressedV2 compresses the reference field and asserts the stream has
// at least minK components, so rank-degradation tests are meaningful.
func compressedV2(t *testing.T, minK int) (*Compressed, []float64) {
	t.Helper()
	f := smoothField()
	p := DPZS()
	p.TVE = NinesTVE(7)
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.K < minK {
		t.Fatalf("test stream has K=%d, need >= %d", c.Stats.K, minK)
	}
	return c, f.Data
}

// damage flips one byte inside the payload of the named v2 section.
func damage(t *testing.T, buf []byte, name string) []byte {
	t.Helper()
	out := append([]byte(nil), buf...)
	walked, err := walk(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range walked.secs {
		if walked.sectionName(i) == name {
			s.comp[len(s.comp)/2] ^= 0x40 // comp aliases out
			return out
		}
	}
	t.Fatalf("no section %q in stream", name)
	return nil
}

// readGoldenOut reads a golden decode: little-endian float64 values.
func readGoldenOut(t *testing.T, name string) []float64 {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// TestGoldenV1StreamDecodesByteIdentically pins the v1 decode bitwise to
// golden_v1_rankspace.out, written once by the rank-space decoder.
// golden_v1.out is the decode of the retired full-plane path, kept
// unchanged as the pre-change reference: the two differ only in
// floating-point summation order, so every value must stay within
// 1e-12 of the value range of it (the re-pin moved values by at most
// 1.4e-15 of the range).
func TestGoldenV1StreamDecodesByteIdentically(t *testing.T) {
	stream, err := os.ReadFile("testdata/golden_v1.dpz")
	if err != nil {
		t.Fatal(err)
	}
	if stream[4] != formatV1 {
		t.Fatalf("golden stream version = %d, want 1", stream[4])
	}
	want := readGoldenOut(t, "testdata/golden_v1_rankspace.out")
	old := readGoldenOut(t, "testdata/golden_v1.out")
	out, dims, err := Decompress(context.Background(), stream, 0, 0, nil)
	if err != nil {
		t.Fatalf("v1 stream no longer decodes: %v", err)
	}
	if len(dims) != 2 || dims[0] != 90 || dims[1] != 180 {
		t.Fatalf("dims = %v", dims)
	}
	if len(want) != len(out) || len(old) != len(out) {
		t.Fatalf("golden outputs hold %d and %d values, decoded %d", len(want), len(old), len(out))
	}
	for i, v := range out {
		if g := want[i]; g != v {
			t.Fatalf("value %d: decoded %v, golden %v — v1 decode is no longer byte-identical", i, v, g)
		}
	}
	lo, hi := old[0], old[0]
	for _, g := range old {
		lo, hi = math.Min(lo, g), math.Max(hi, g)
	}
	tol := 1e-12 * (hi - lo)
	for i, v := range out {
		if d := math.Abs(v - old[i]); d > tol {
			t.Fatalf("value %d: decoded %v, full-plane golden %v (diff %g > %g)", i, v, old[i], d, tol)
		}
	}
	// The golden stream must also pass Verify and best-effort decode.
	if err := Verify(stream); err != nil {
		t.Fatalf("Verify(v1 golden): %v", err)
	}
	be, _, err := DecompressBestEffort(stream, 0)
	if err != nil {
		t.Fatalf("DecompressBestEffort(v1 golden): %v", err)
	}
	if len(be) != len(out) {
		t.Fatalf("best-effort decoded %d values, want %d", len(be), len(out))
	}
}

func TestVerifyCleanStream(t *testing.T) {
	c, _ := compressedV2(t, 1)
	if c.Bytes[4] != formatV3 {
		t.Fatalf("writer emits version %d, want 3", c.Bytes[4])
	}
	if err := Verify(c.Bytes); err != nil {
		t.Fatalf("Verify(clean) = %v", err)
	}
}

func TestVerifyNamesDamagedSection(t *testing.T) {
	c, _ := compressedV2(t, 2)
	lastProj := fmt.Sprintf("rank %d projection", c.Stats.K-1)
	for _, name := range []string{"means", "rank 0 scores", lastProj} {
		bad := damage(t, c.Bytes, name)
		err := Verify(bad)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("Verify(%s damaged) = %v, want *CorruptionError", name, err)
		}
		if len(ce.Sections) != 1 || ce.Sections[0] != name {
			t.Fatalf("damaged %q, Verify blamed %v", name, ce.Sections)
		}
		if ce.RecoveredRank != 0 {
			t.Fatalf("Verify reported a recovered rank: %+v", ce)
		}
	}
}

func TestVerifyDetectsHeaderDamage(t *testing.T) {
	c, _ := compressedV2(t, 1)
	bad := append([]byte(nil), c.Bytes...)
	bad[9] ^= 0x01 // inside dims[0]
	if err := Verify(bad); err == nil {
		t.Fatal("Verify accepted a stream with a damaged header")
	}
}

func TestBestEffortRecoversLeadingRanks(t *testing.T) {
	c, orig := compressedV2(t, 3)
	k := c.Stats.K

	// Damage the last rank's score region: recovery at k-1.
	bad := damage(t, c.Bytes, fmt.Sprintf("rank %d scores", k-1))
	data, dims, err := DecompressBestEffort(bad, 0)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("best effort error = %v, want *CorruptionError", err)
	}
	if ce.RecoveredRank != k-1 || ce.StoredRank != k {
		t.Fatalf("recovered rank %d of %d, want %d of %d", ce.RecoveredRank, ce.StoredRank, k-1, k)
	}
	if data == nil || len(dims) != 2 {
		t.Fatal("best effort returned no data alongside the corruption report")
	}
	total := 1
	for _, d := range dims {
		total *= d
	}
	if total != len(data) {
		t.Fatalf("best-effort output shape-inconsistent: dims %v, %d values", dims, len(data))
	}
	// The reduced-rank reconstruction must match the rank decode exactly.
	want, _, err := Decompress(context.Background(), c.Bytes, 0, k-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if data[i] != want[i] {
			t.Fatalf("best-effort differs from the rank-%d decode at %d", k-1, i)
		}
	}
	// And it should still resemble the original field.
	if psnr := stats.PSNR(orig, data); psnr < 20 {
		t.Fatalf("best-effort PSNR = %.1f dB, expected a usable reconstruction", psnr)
	}

	// Damage a middle rank's projection: recovery stops just below it.
	mid := k / 2
	bad = damage(t, c.Bytes, fmt.Sprintf("rank %d projection", mid))
	_, _, err = DecompressBestEffort(bad, 0)
	if !errors.As(err, &ce) {
		t.Fatalf("mid-rank damage error = %v", err)
	}
	if ce.RecoveredRank != mid {
		t.Fatalf("mid-rank damage recovered %d, want %d", ce.RecoveredRank, mid)
	}
}

func TestBestEffortFailsWithoutSideData(t *testing.T) {
	c, _ := compressedV2(t, 2)
	for _, name := range []string{"means", "rank 0 scores"} {
		bad := damage(t, c.Bytes, name)
		data, _, err := DecompressBestEffort(bad, 0)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("%s damaged: error = %v, want *CorruptionError", name, err)
		}
		if data != nil || ce.RecoveredRank != 0 {
			t.Fatalf("%s damaged: expected unrecoverable, got rank %d", name, ce.RecoveredRank)
		}
	}
}

func TestDecompressRankBoundaries(t *testing.T) {
	c, _ := compressedV2(t, 2)
	k := c.Stats.K

	full, dims, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// rank 0 = all components: identical to Decompress.
	r0, _, err := Decompress(context.Background(), c.Bytes, 0, 0, nil)
	if err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	// rank k = all components, explicitly.
	rk, _, err := Decompress(context.Background(), c.Bytes, 0, k, nil)
	if err != nil {
		t.Fatalf("rank k=%d: %v", k, err)
	}
	for i := range full {
		if r0[i] != full[i] || rk[i] != full[i] {
			t.Fatalf("rank 0/k reconstruction differs from Decompress at %d", i)
		}
	}

	// Every valid partial rank must succeed with a shape-consistent result.
	total := 1
	for _, d := range dims {
		total *= d
	}
	for _, rank := range []int{1, k - 1} {
		if rank < 1 {
			continue
		}
		out, gotDims, err := Decompress(context.Background(), c.Bytes, 0, rank, nil)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if len(out) != total {
			t.Fatalf("rank %d: %d values, want %d", rank, len(out), total)
		}
		for i := range gotDims {
			if gotDims[i] != dims[i] {
				t.Fatalf("rank %d dims = %v, want %v", rank, gotDims, dims)
			}
		}
	}

	// Out-of-contract ranks must error, not panic or mis-decode.
	for _, rank := range []int{-1, -99, k + 1, k + 1000} {
		if _, _, err := Decompress(context.Background(), c.Bytes, 0, rank, nil); err == nil {
			t.Fatalf("rank %d accepted, want error", rank)
		}
	}
}

// TestVerifyCatchesRawLenDamage: no CRC covers a section header, so a
// damaged rawLen shows only when the payload inflates to the wrong
// length. Adding 1, 7 or 1000 to any section's rawLen must make Verify
// name that section, since Decompress (or, for the index, ReadIndex)
// cannot decode it; Decompress is checked at +1, the cheapest damage.
func TestVerifyCatchesRawLenDamage(t *testing.T) {
	c, _ := compressedV2(t, 2)
	walked, err := walk(c.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	for i, sec := range walked.secs {
		name, off := walked.sectionName(i), sec.off
		for _, add := range []uint64{1, 7, 1000} {
			bad := append([]byte(nil), c.Bytes...)
			binary.LittleEndian.PutUint64(bad[off:], binary.LittleEndian.Uint64(bad[off:])+add)
			err := Verify(bad)
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("%s rawLen+%d: Verify = %v, want *CorruptionError", name, add, err)
			}
			if len(ce.Sections) != 1 || ce.Sections[0] != name {
				t.Fatalf("%s rawLen+%d: Verify blamed %v", name, add, ce.Sections)
			}
			if name == "index" || add != 1 {
				continue
			}
			if _, _, err := Decompress(context.Background(), bad, 1, 0, nil); err == nil {
				t.Fatalf("%s rawLen+%d: Decompress accepted the stream", name, add)
			}
		}
	}
}
