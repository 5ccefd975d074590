package core

import (
	"context"
	"fmt"
	"os"
	"testing"

	"dpz/internal/metrics"
)

// decodeWorkerCounts are the worker fan-outs the fast-path identity tests
// sweep; decode bits must not depend on any of them.
var decodeWorkerCounts = []int{1, 2, 8}

// entryPointStream is one input of the entry-point identity test.
type entryPointStream struct {
	name  string
	bytes []byte
	k     int
}

// entryPointStreams compresses the reference field once per Stage 1
// transform mode and adds the v1 golden stream.
func entryPointStreams(t *testing.T) []entryPointStream {
	t.Helper()
	c, _ := compressedV2(t, 3)
	out := []entryPointStream{{"dct1d", c.Bytes, c.Stats.K}}
	for _, md := range []struct {
		name string
		set  func(*Params)
	}{
		{"dct2d", func(p *Params) { p.DCT2D = true }},
		{"haar", func(p *Params) { p.UseWavelet = true }},
		{"none", func(p *Params) { p.SkipDCT = true }},
	} {
		f := smoothField()
		p := DPZS()
		p.TVE = NinesTVE(7)
		md.set(&p)
		c, err := Compress(f.Data, f.Dims, p)
		if err != nil {
			t.Fatalf("%s: %v", md.name, err)
		}
		if c.Stats.K < 3 {
			t.Fatalf("%s: test stream has K=%d, need >= 3", md.name, c.Stats.K)
		}
		out = append(out, entryPointStream{md.name, c.Bytes, c.Stats.K})
	}
	v1, err := os.ReadFile("testdata/golden_v1.dpz")
	if err != nil {
		t.Fatal(err)
	}
	h, _, _, err := parseFixedHeader(v1)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, entryPointStream{"v1", v1, h.k})
}

// TestPartialDecodeByteIdentityAcrossEntryPoints pins the one rank-space
// decode path: every entry point — Decompress at a rank, the one-shot
// clamped preview, DecompressBestEffort and Progressive — must produce
// bit-identical output
// at equal rank, partial or full, for every worker count, in every Stage 1
// transform mode and on a v1 stream. v1 streams carry no per-section
// checksums, so best-effort is checked on them at r=k only. Run under
// -race this also exercises the pooled-scratch handoff between decode
// workers.
func TestPartialDecodeByteIdentityAcrossEntryPoints(t *testing.T) {
	for _, s := range entryPointStreams(t) {
		seen := map[int]bool{}
		for _, rank := range []int{1, 2, s.k / 2, s.k - 1, s.k} {
			if rank >= 1 && !seen[rank] {
				seen[rank] = true
				checkEntryPoints(t, s, rank)
			}
		}
	}
}

func checkEntryPoints(t *testing.T, s entryPointStream, rank int) {
	t.Helper()
	ref, refDims, err := Decompress(context.Background(), s.bytes, 1, rank, nil)
	if err != nil {
		t.Fatalf("%s rank %d reference decode: %v", s.name, rank, err)
	}
	check := func(label string, data []float64, dims []int) {
		t.Helper()
		if len(dims) != len(refDims) {
			t.Fatalf("%s rank %d %s: dims %v, want %v", s.name, rank, label, dims, refDims)
		}
		for i := range dims {
			if dims[i] != refDims[i] {
				t.Fatalf("%s rank %d %s: dims %v, want %v", s.name, rank, label, dims, refDims)
			}
		}
		if len(data) != len(ref) {
			t.Fatalf("%s rank %d %s: %d values, want %d", s.name, rank, label, len(data), len(ref))
		}
		for i := range data {
			if data[i] != ref[i] {
				t.Fatalf("%s rank %d %s: value %d = %v, want %v — decode is not byte-identical",
					s.name, rank, label, i, data[i], ref[i])
			}
		}
	}

	// Best-effort needs a stream whose trailing ranks are unreadable;
	// damaging rank `rank`'s scores recovers exactly `rank` components.
	// At r=k the intact stream decodes fully with no report.
	v1 := s.name == "v1"
	bestEffort := s.bytes
	if rank < s.k && !v1 {
		bestEffort = damage(t, s.bytes, fmt.Sprintf("rank %d scores", rank))
	}

	for _, w := range decodeWorkerCounts {
		data, dims, err := Decompress(context.Background(), s.bytes, w, rank, nil)
		if err != nil {
			t.Fatalf("%s rank decode workers=%d rank=%d: %v", s.name, w, rank, err)
		}
		check(fmt.Sprintf("rank decode/w=%d", w), data, dims)

		data, dims, used, err := decompressRanks(s.bytes, rank, w)
		if err != nil {
			t.Fatalf("%s one-shot preview workers=%d rank=%d: %v", s.name, w, rank, err)
		}
		if used != rank {
			t.Fatalf("%s one-shot preview workers=%d rank=%d used %d", s.name, w, rank, used)
		}
		check(fmt.Sprintf("one-shot preview/w=%d", w), data, dims)

		if rank == s.k || !v1 {
			data, dims, err = DecompressBestEffort(bestEffort, w)
			if rank == s.k && err != nil {
				t.Fatalf("%s DecompressBestEffort workers=%d on an intact stream: %v", s.name, w, err)
			}
			if rank < s.k && err == nil {
				t.Fatalf("%s DecompressBestEffort workers=%d rank=%d: expected corruption report", s.name, w, rank)
			}
			if data == nil {
				t.Fatalf("%s DecompressBestEffort workers=%d rank=%d returned no data: %v", s.name, w, rank, err)
			}
			check(fmt.Sprintf("DecompressBestEffort/w=%d", w), data, dims)
		}

		p, err := NewProgressive(s.bytes, w)
		if err != nil {
			t.Fatalf("%s NewProgressive workers=%d: %v", s.name, w, err)
		}
		data, dims, used, err = p.Decode(rank)
		if err != nil {
			t.Fatalf("%s Progressive workers=%d rank=%d: %v", s.name, w, rank, err)
		}
		if used != rank {
			t.Fatalf("%s Progressive workers=%d rank=%d used %d", s.name, w, rank, used)
		}
		check(fmt.Sprintf("Progressive/w=%d", w), data, dims)
	}
}

// TestFullDecodeWorkerIndependence pins the full decode (the rank-space
// GemmInto recompose at r=k) across worker counts: Decompress bits must be
// identical no matter how the rows are partitioned.
func TestFullDecodeWorkerIndependence(t *testing.T) {
	c, _ := compressedV2(t, 1)
	ref, _, err := Decompress(context.Background(), c.Bytes, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range decodeWorkerCounts[1:] {
		data, _, err := Decompress(context.Background(), c.Bytes, w, 0, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range data {
			if data[i] != ref[i] {
				t.Fatalf("workers=%d: value %d = %v, want %v — full decode depends on worker count",
					w, i, data[i], ref[i])
			}
		}
	}
}

// TestDecompressStatsBreakdown checks the staged decode instrumentation:
// the output with a trace matches Decompress without one bit for bit, and
// a Progressive decode at the same rank uses the rank the call asked for.
// TestStageTrace pins the spans themselves.
func TestDecompressStatsBreakdown(t *testing.T) {
	c, _ := compressedV2(t, 2)
	k := c.Stats.K

	for _, rank := range []int{0, 1} {
		want, _, err := Decompress(context.Background(), c.Bytes, 0, rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		var tr metrics.Trace
		data, dims, err := Decompress(context.Background(), c.Bytes, 0, rank, &tr)
		if err != nil {
			t.Fatalf("Decompress with a trace rank=%d: %v", rank, err)
		}
		if len(dims) != 2 {
			t.Fatalf("rank %d: dims %v", rank, dims)
		}
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("rank %d: value %d with a trace differs from Decompress without", rank, i)
			}
		}
		if len(tr) == 0 {
			t.Fatalf("rank %d: no spans recorded", rank)
		}
		wantUsed := k
		if rank != 0 {
			wantUsed = rank
		}
		p, err := NewProgressive(c.Bytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, used, err := p.Decode(rank)
		if err != nil {
			t.Fatal(err)
		}
		if used != wantUsed {
			t.Fatalf("rank %d: decoded %d ranks, want %d", rank, used, wantUsed)
		}
		for i := range prog {
			if prog[i] != want[i] {
				t.Fatalf("rank %d: Progressive value %d differs from Decompress", rank, i)
			}
		}
	}
}
