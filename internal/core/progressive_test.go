package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"dpz/internal/blockio"
	"dpz/internal/dataset"
	"dpz/internal/integrity"
	"dpz/internal/mat"
	"dpz/internal/retrieval"
)

// indexRegion returns the offset of the v3 index section (header
// included) within a stream, and the stream's data prefix length.
func indexRegion(t *testing.T, buf []byte) int {
	t.Helper()
	info, err := Inspect(buf)
	if err != nil {
		t.Fatal(err)
	}
	last := info.Sections[len(info.Sections)-1]
	if last.Name != "index" {
		t.Fatalf("last section is %q, want index", last.Name)
	}
	return len(buf) - last.CompressedBytes - 20
}

func TestStreamIndexRoundTrip(t *testing.T) {
	c, data := compressedV2(t, 2)
	ix, err := ReadIndex(c.Bytes)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if len(ix.Tiles) != 1 {
		t.Fatalf("stream index holds %d tiles, want 1", len(ix.Tiles))
	}
	s := ix.Tiles[0]
	if s.Count != len(data) {
		t.Fatalf("Count = %d, want %d", s.Count, len(data))
	}
	// The summary stores exact statistics of the original values,
	// accumulated in the same order the test recomputes them.
	minV, maxV := math.Inf(1), math.Inf(-1)
	var sum, sumSq float64
	for _, v := range data {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
		sum += v
		sumSq += v * v
	}
	if s.Min != minV || s.Max != maxV {
		t.Fatalf("min/max = %v/%v, want %v/%v", s.Min, s.Max, minV, maxV)
	}
	if math.Abs(s.Mean-sum/float64(len(data))) > 1e-12*math.Abs(s.Mean) {
		t.Fatalf("mean = %v, want %v", s.Mean, sum/float64(len(data)))
	}
	wantRMS := math.Sqrt(sumSq / float64(len(data)))
	if math.Abs(s.RMS-wantRMS) > 1e-12*wantRMS {
		t.Fatalf("rms = %v, want %v", s.RMS, wantRMS)
	}
	if len(s.RankEnergy) != c.Stats.K {
		t.Fatalf("%d rank energies, want K=%d", len(s.RankEnergy), c.Stats.K)
	}
	if s.Energy() <= 0 {
		t.Fatal("no coefficient energy recorded")
	}
	// PCA ranks are ordered by explained variance, so the leading rank
	// carries the largest energy.
	for j := 1; j < len(s.RankEnergy); j++ {
		if s.RankEnergy[j] > s.RankEnergy[0] {
			t.Fatalf("rank %d energy %v exceeds rank 0's %v", j, s.RankEnergy[j], s.RankEnergy[0])
		}
	}
}

func TestNoIndexWritesV2(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.TVE = NinesTVE(7)
	p.NoIndex = true
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bytes[4] != formatV2 {
		t.Fatalf("NoIndex stream has version %d, want 2", c.Bytes[4])
	}
	if _, err := ReadIndex(c.Bytes); !errors.Is(err, retrieval.ErrNoIndex) {
		t.Fatalf("ReadIndex(v2) = %v, want ErrNoIndex", err)
	}
	// The v2 stream must be exactly the v3 stream minus its index section.
	p3 := DPZS()
	p3.TVE = NinesTVE(7)
	c3, err := Compress(f.Data, f.Dims, p3)
	if err != nil {
		t.Fatal(err)
	}
	cut := indexRegion(t, c3.Bytes)
	v2body := append([]byte(nil), c3.Bytes[:cut]...)
	// Besides dropping the trailing section, only the version byte, the
	// section count and therefore the header CRC differ.
	if got, want := len(c.Bytes), len(v2body); got != want {
		t.Fatalf("v2 stream is %d bytes, v3 minus index is %d", got, want)
	}
	diff := 0
	for i := range v2body {
		if v2body[i] != c.Bytes[i] {
			diff++
		}
	}
	// version byte + nsec low byte + up to 4 CRC bytes.
	if diff > 6 {
		t.Fatalf("%d bytes differ between v2 and v3-minus-index, want <= 6", diff)
	}
	d2, _, err := Decompress(c.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	d3, _, err := Decompress(c3.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d2 {
		if d2[i] != d3[i] {
			t.Fatalf("v2 and v3 reconstructions differ at %d", i)
		}
	}
}

func TestDecompressRanksMatchesDecompressRank(t *testing.T) {
	c, _ := compressedV2(t, 3)
	k := c.Stats.K
	full, dims, err := Decompress(c.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, k - 1, k, k + 5, 0, -1} {
		got, gdims, used, err := DecompressRanks(c.Bytes, r, 0)
		if err != nil {
			t.Fatalf("DecompressRanks(%d): %v", r, err)
		}
		wantUsed := k
		if r > 0 && r < k {
			wantUsed = r
		}
		if used != wantUsed {
			t.Fatalf("ranks=%d used %d, want %d", r, used, wantUsed)
		}
		want := full
		if wantUsed < k {
			want, _, err = DecompressRank(c.Bytes, 0, wantUsed)
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("ranks=%d decoded %d values, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ranks=%d differs from DecompressRank at %d", r, i)
			}
		}
		if len(gdims) != len(dims) {
			t.Fatalf("dims = %v, want %v", gdims, dims)
		}
	}
}

// TestPartialInflationSkipsTrailingSections proves the preview decode
// never touches trailing rank sections: with the last rank's payloads
// bit-flipped, a full decode fails its checksum but a rank-1 preview
// still returns bytes identical to the intact preview.
func TestPartialInflationSkipsTrailingSections(t *testing.T) {
	c, _ := compressedV2(t, 3)
	k := c.Stats.K
	intact, _, _, err := DecompressRanks(c.Bytes, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cut := indexRegion(t, c.Bytes)
	// Flip a byte well inside the last rank's projection payload (the
	// final data bytes before the index section).
	bad := append([]byte(nil), c.Bytes...)
	bad[cut-8] ^= 0x10
	if _, _, err := Decompress(bad, 0); err == nil {
		t.Fatal("full decode accepted a damaged trailing section")
	}
	got, _, used, err := DecompressRanks(bad, 1, 0)
	if err != nil {
		t.Fatalf("rank-1 preview touched a trailing section: %v", err)
	}
	if used != 1 {
		t.Fatalf("used %d ranks, want 1", used)
	}
	for i := range got {
		if got[i] != intact[i] {
			t.Fatalf("preview over damaged tail differs at %d", i)
		}
	}
	if k >= 3 {
		if _, _, _, err := DecompressRanks(bad, k-1, 0); err != nil {
			t.Fatalf("rank-%d preview touched the damaged last rank: %v", k-1, err)
		}
	}
}

func TestProgressiveMatchesDecompressRank(t *testing.T) {
	c, _ := compressedV2(t, 3)
	k := c.Stats.K
	p, err := NewProgressive(c.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.StoredRank() != k {
		t.Fatalf("StoredRank = %d, want %d", p.StoredRank(), k)
	}
	// Refine upward, then jump back down: every answer must be
	// byte-identical to the one-shot decode at that rank.
	for _, r := range []int{1, 2, k, 1, k - 1} {
		got, dims, used, err := p.Decode(r)
		if err != nil {
			t.Fatalf("Decode(%d): %v", r, err)
		}
		if used != r && !(r >= k && used == k) {
			t.Fatalf("Decode(%d) used %d", r, used)
		}
		want, wdims, err := DecompressRank(c.Bytes, 0, used)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("Decode(%d) returned %d values, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Decode(%d) differs from DecompressRank at %d", r, i)
			}
		}
		if len(dims) != len(wdims) {
			t.Fatalf("dims %v, want %v", dims, wdims)
		}
	}
}

// TestIndexDamageDegradesToNoIndex sweeps faults across the entire index
// region (section header + payload): the data decode must always succeed
// with bytes identical to the intact reconstruction, and ReadIndex must
// either fail typed (ErrNoIndex family) or — when the flip landed
// somewhere immaterial to the payload, like the section CRC field —
// return exactly the intact index. Verify must flag every flip.
func TestIndexDamageDegradesToNoIndex(t *testing.T) {
	c, _ := compressedV2(t, 2)
	intact, _, err := Decompress(c.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	intactIx, err := ReadIndex(c.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	intactPayload := retrieval.EncodePayload(intactIx.Tiles)
	start := indexRegion(t, c.Bytes)
	region := len(c.Bytes) - start
	integrity.ForEach(c.Bytes[start:], region, func(fault integrity.Fault, corrupted []byte) {
		if bytes.Equal(corrupted, c.Bytes[start:]) {
			return // no-op fault (e.g. zeroing an already-zero byte)
		}
		buf := append([]byte(nil), c.Bytes[:start]...)
		buf = append(buf, corrupted...)
		data, _, err := Decompress(buf, 0)
		if err != nil {
			t.Fatalf("fault %d: index damage failed the data decode: %v", fault, err)
		}
		for i := range data {
			if data[i] != intact[i] {
				t.Fatalf("fault %d: reconstruction changed at %d", fault, i)
			}
		}
		ix, err := ReadIndex(buf)
		switch {
		case err != nil:
			if !errors.Is(err, retrieval.ErrNoIndex) {
				t.Fatalf("fault %d: ReadIndex error %v is not typed", fault, err)
			}
		default:
			if !bytes.Equal(retrieval.EncodePayload(ix.Tiles), intactPayload) {
				t.Fatalf("fault %d: damaged index decoded to different answers", fault)
			}
		}
		if err := Verify(buf); err == nil {
			t.Fatalf("fault %d: Verify accepted a damaged index region", fault)
		}
	})

	// Truncations inside the index region degrade the same way.
	for cut := start; cut < len(c.Bytes); cut += 7 {
		data, _, err := Decompress(c.Bytes[:cut], 0)
		if err != nil {
			t.Fatalf("truncation at %d failed the data decode: %v", cut, err)
		}
		for i := range data {
			if data[i] != intact[i] {
				t.Fatalf("truncation at %d changed the reconstruction", cut)
			}
		}
		if _, err := ReadIndex(c.Bytes[:cut]); !errors.Is(err, retrieval.ErrNoIndex) {
			t.Fatalf("truncation at %d: ReadIndex = %v, want ErrNoIndex family", cut, err)
		}
	}
}

func TestBestEffortRecoversFullRankOnIndexDamage(t *testing.T) {
	c, _ := compressedV2(t, 2)
	start := indexRegion(t, c.Bytes)
	bad := append([]byte(nil), c.Bytes...)
	bad[len(bad)-3] ^= 0x40 // inside the index payload
	data, _, err := DecompressBestEffort(bad, 0)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("DecompressBestEffort = %v, want *CorruptionError", err)
	}
	if ce.RecoveredRank != c.Stats.K {
		t.Fatalf("recovered rank %d, want full K=%d", ce.RecoveredRank, c.Stats.K)
	}
	if len(ce.Sections) != 1 || ce.Sections[0] != "index" {
		t.Fatalf("damaged sections = %v, want [index]", ce.Sections)
	}
	intact, _, err2 := Decompress(c.Bytes, 0)
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(data) != len(intact) {
		t.Fatalf("best-effort returned %d values, want %d", len(data), len(intact))
	}
	for i := range data {
		if data[i] != intact[i] {
			t.Fatalf("best-effort data differs at %d", i)
		}
	}
	_ = start
}

func TestV3DeterministicAcrossWorkers(t *testing.T) {
	f := smoothField()
	var ref []byte
	for _, w := range []int{1, 2, 8} {
		p := DPZS()
		p.TVE = NinesTVE(7)
		p.Workers = w
		c, err := Compress(f.Data, f.Dims, p)
		if err != nil {
			t.Fatal(err)
		}
		if c.Bytes[4] != formatV3 {
			t.Fatalf("workers=%d produced version %d", w, c.Bytes[4])
		}
		if ref == nil {
			ref = c.Bytes
			continue
		}
		if !bytes.Equal(ref, c.Bytes) {
			t.Fatalf("workers=%d stream differs from workers=1", w)
		}
	}
}

// TestPreviewSpeedup is the timing acceptance check: a rank-1 preview
// must beat the full decode comfortably when r << k. The strict 3x bound
// is enforced on the PHIS benchmark in dpzbench; here a wide margin keeps
// CI timing noise from flaking the suite.
func TestPreviewSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := dataset.CESM("PHIS", 240, 480, 31)
	p := DPZS()
	p.TVE = NinesTVE(8)
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.K < 32 {
		t.Skipf("stream too low-rank (K=%d) for a meaningful speed ratio", c.Stats.K)
	}
	best := func(f func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			f()
			if e := time.Since(t0); e < d {
				d = e
			}
		}
		return d
	}
	fullT := best(func() {
		if _, _, err := Decompress(c.Bytes, 1); err != nil {
			t.Fatal(err)
		}
	})
	prevT := best(func() {
		if _, _, _, err := DecompressRanks(c.Bytes, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	// The 3x acceptance bound holds at full bench scale (see the dpzbench
	// preview records); this smaller field asserts a loose 1.5x so CI
	// timing noise cannot flake the suite.
	if prevT*3 > fullT*2 {
		t.Fatalf("rank-1 preview %v not at least 1.5x faster than full decode %v (K=%d)", prevT, fullT, c.Stats.K)
	}
}

// TestReconstructRankSpaceMatchesDCTDomain proves the rank-space
// reconstruction computes the same linear map as the full-plane oracle
// (reference_test.go), which composes every block row in the transform
// domain before inverse-transforming the plane: the two differ only in
// floating-point summation order, so their outputs must agree to rounding
// in every transform mode, on the standardized and plain paths, at every
// rank.
func TestReconstructRankSpaceMatchesDCTDomain(t *testing.T) {
	const m, n, k = 17, 96, 5
	y := mat.NewDense(n, k)
	proj := mat.NewDense(m, k)
	means := make([]float64, m)
	scales := make([]float64, m)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			y.Set(i, j, 10*math.Sin(float64(3+i*k+j)))
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			proj.Set(i, j, math.Cos(float64(7+i*k+j)))
		}
		means[i] = 4 * math.Sin(float64(i))
		scales[i] = 1 + 0.5*math.Cos(float64(i))
	}
	shape := blockio.Shape{M: m, N: n, Padded: m * n}
	origLen := m*n - 3
	modes := []struct {
		name string
		mode xformMode
	}{{"dct1d", xform1D}, {"dct2d", xform2D}, {"haar", xformHaar}, {"none", xformNone}}
	for _, md := range modes {
		for _, std := range []struct {
			name string
			sc   []float64
		}{{"plain", nil}, {"standardized", scales}} {
			for _, r := range []int{1, k / 2, k} {
				name := fmt.Sprintf("%s/%s/r=%d", md.name, std.name, r)
				yr, pr := mat.NewDense(n, r), mat.NewDense(m, r)
				for i := 0; i < n; i++ {
					copy(yr.Row(i), y.Row(i)[:r])
				}
				for i := 0; i < m; i++ {
					copy(pr.Row(i), proj.Row(i)[:r])
				}
				want, err := reconstruct(yr, pr, means, std.sc, shape, origLen, 2, md.mode)
				if err != nil {
					t.Fatalf("%s: reconstruct: %v", name, err)
				}
				got, err := reconstructRankSpace(yr, projRows(pr, r), means, std.sc, shape, origLen, md.mode, 2)
				if err != nil {
					t.Fatalf("%s: reconstructRankSpace: %v", name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
				}
				for i := range got {
					if d := math.Abs(got[i] - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
						t.Fatalf("%s: value %d: rank-space %v vs full-plane %v (diff %g)",
							name, i, got[i], want[i], d)
					}
				}
			}
		}
	}
}
