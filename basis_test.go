// Determinism and quality of the cross-tile basis-reuse path: with the
// cache on, every worker count must produce byte-identical archives, the
// all-miss case must be byte-identical to the cache-off stream, a tile
// whose candidate the guard rejects must write the stream it writes as a
// cache leader, and every accepted fit must still meet the TVE target on
// its own tile.
package dpz_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpz"
	"dpz/internal/dataset"
)

// driftedFields builds n near-identical archive fields: one smooth base
// tile with a tiny per-tile multiplicative drift, the workload the basis
// cache exists for.
func driftedFields(n int) []dpz.ArchiveField {
	base := dataset.CESM("CLDHGH", 48, 64, 2001)
	fields := make([]dpz.ArchiveField, n)
	for t := range fields {
		data := make([]float64, len(base.Data))
		drift := 1 + 1e-5*float64(t)
		for i, v := range base.Data {
			data[i] = v * drift
		}
		fields[t] = dpz.ArchiveField{Name: fmt.Sprintf("tile-%02d", t), Data: data, Dims: base.Dims}
	}
	return fields
}

// batchArchive compresses fields with CompressBatch and returns the
// archive bytes plus the per-field stats.
func batchArchive(t *testing.T, fields []dpz.ArchiveField, o dpz.Options) ([]byte, []dpz.Stats) {
	t.Helper()
	var buf bytes.Buffer
	aw, err := dpz.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := aw.CompressBatch(fields, o)
	if err != nil {
		t.Fatalf("workers=%d: %v", o.Workers, err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

func TestBasisReuseBatchWorkersByteIdentical(t *testing.T) {
	fields := driftedFields(16)
	var (
		ref      []byte
		refStats []dpz.Stats
	)
	for _, w := range detWorkers {
		o := dpz.LooseOptions()
		o.Workers = w
		o.BasisReuse = true
		got, stats := batchArchive(t, fields, o)
		if ref == nil {
			ref, refStats = got, stats
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d archive differs from workers=%d with basis reuse on", w, detWorkers[0])
		}
		for i := range stats {
			if stats[i].BasisDecision != refStats[i].BasisDecision {
				t.Fatalf("workers=%d field %d: decision %q, workers=%d said %q",
					w, i, stats[i].BasisDecision, detWorkers[0], refStats[i].BasisDecision)
			}
		}
	}

	// The workload is the cache's target case: the first tile leads, the
	// rest must actually accept its basis.
	reused := 0
	for i, st := range refStats {
		if st.BasisDecision == "" {
			t.Fatalf("field %d: no basis decision recorded with reuse on", i)
		}
		if st.BasisDecision == "accept" {
			reused++
		}
		// The quality guard's contract: whatever path was taken, the
		// achieved TVE meets the cold path's target.
		if o := dpz.LooseOptions(); st.TVEAchieved < o.TVE {
			t.Fatalf("field %d (%s): achieved TVE %v below target %v",
				i, st.BasisDecision, st.TVEAchieved, o.TVE)
		}
	}
	if reused < len(fields)/2 {
		t.Fatalf("only %d of %d near-identical tiles reused a basis", reused, len(fields))
	}

	// The archive must still decode to the right values.
	ar, err := dpz.OpenArchive(bytes.NewReader(ref), int64(len(ref)))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fields {
		data, dims, err := ar.DecompressFloat64(f.Name)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if len(data) != len(f.Data) || dims[0] != f.Dims[0] {
			t.Fatalf("field %d: %d values, dims %v", i, len(data), dims)
		}
		if psnr := dpz.PSNR(f.Data, data); psnr < 50 {
			t.Fatalf("field %d: PSNR %v dB after reuse", i, psnr)
		}
	}
}

func TestBasisReuseBatchAllMissMatchesOff(t *testing.T) {
	// Genuinely dissimilar fields (different shapes → different keys):
	// every tile leads and fits cold, so the archive must be bit-identical
	// to the cache-off run.
	var fields []dpz.ArchiveField
	for i, rows := range []int{40, 48, 56, 64} {
		f := dataset.CESM(fmt.Sprintf("F%d", i), rows, 60, int64(300+i))
		fields = append(fields, dpz.ArchiveField{Name: f.Name, Data: f.Data, Dims: f.Dims})
	}
	off := dpz.LooseOptions()
	off.Workers = 2
	refBytes, _ := batchArchive(t, fields, off)

	on := off
	on.BasisReuse = true
	gotBytes, stats := batchArchive(t, fields, on)
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatal("all-miss reuse archive differs from the cache-off archive")
	}
	for i, st := range stats {
		if st.BasisDecision != "cold" {
			t.Fatalf("field %d: decision %q, want cold", i, st.BasisDecision)
		}
	}
}

// float32Bytes returns data as little-endian float32, the layout
// CompressTiled reads.
func float32Bytes(data []float64) []byte {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(v)))
	}
	return raw
}

func TestBasisReuseTiledWorkersByteIdentical(t *testing.T) {
	// Fields cut into identical-shape row slabs: the tiled pipeline's
	// source acquires a cache handle per tile, so slabs after the first
	// are offered the leader's basis. The sampled CLDHGH field has a tile
	// whose candidate the guard rejects.
	cldhgh, err := dataset.Generate("CLDHGH", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sampled := dpz.LooseOptions()
	sampled.UseSampling = true
	for _, c := range []struct {
		name     string
		f        *dataset.Field
		tileRows int
		o        dpz.Options
		minPSNR  float64
	}{
		{"smooth 96x64", dataset.CESM("CLDHGH", 96, 64, 5), 8, dpz.LooseOptions(), 50},
		// The loose scheme keeps about 30 dB on this field with reuse off.
		{"sampled CLDHGH 360x720", cldhgh, 150, sampled, 29},
	} {
		t.Run(c.name, func(t *testing.T) {
			testTiledReuse(t, c.f, c.tileRows, c.o, c.minPSNR)
		})
	}
}

// testTiledReuse checks one tiled reuse archive of f: byte-identical for
// workers 1, 2 and 8, with a caller-supplied cache too; every cold tile
// writes its leader-alone stream and every accepted tile reaches the TVE
// target; and the archive decodes to at least minPSNR dB, about as well
// as the reuse-off one.
func testTiledReuse(t *testing.T, f *dataset.Field, tileRows int, opts dpz.Options, minPSNR float64) {
	raw := float32Bytes(f.Data)
	run := func(w int, cache *dpz.BasisCache) ([]byte, []dpz.Stats) {
		o := opts
		o.Workers = w
		o.BasisReuse = true
		o.BasisCache = cache
		var buf bytes.Buffer
		stats, err := dpz.CompressTiled(bytes.NewReader(raw), f.Dims, tileRows, o, &buf)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return buf.Bytes(), stats
	}
	ref, stats := run(detWorkers[0], nil)
	for _, w := range detWorkers[1:] {
		if got, _ := run(w, nil); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d tiled archive differs with basis reuse on", w)
		}
	}

	// A caller-supplied cache must behave identically on first use and
	// report the expected hit pattern.
	cache := dpz.NewBasisCache(8)
	if got, _ := run(2, cache); !bytes.Equal(got, ref) {
		t.Fatal("caller-supplied cache changed the archive bytes")
	}
	if st := cache.Stats(); st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("cache stats = %+v, want at least one miss (leader) and one hit", st)
	}

	// A tile either accepts its candidate, reaching the target, or fits
	// cold and writes the stream it writes as the leader of a fresh cache.
	ar, err := dpz.OpenArchive(bytes.NewReader(ref), int64(len(ref)))
	if err != nil {
		t.Fatal(err)
	}
	rowValues := f.Len() / f.Dims[0]
	for i, st := range stats {
		switch st.BasisDecision {
		case "accept":
			if st.TVEAchieved < opts.TVE {
				t.Fatalf("tile %d: accepted basis reaches TVE %v < target %v", i, st.TVEAchieved, opts.TVE)
			}
		case "cold":
			rows := min(tileRows, f.Dims[0]-i*tileRows)
			tile := make([]float64, rows*rowValues)
			for j, v := range f.Data[i*tileRows*rowValues:][:len(tile)] {
				tile[j] = float64(float32(v))
			}
			o := opts
			o.BasisReuse = true
			o.BasisCache = dpz.NewBasisCache(1)
			alone, err := dpz.CompressFloat64(tile, append([]int{rows}, f.Dims[1:]...), o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ar.Stream(fmt.Sprintf("tile-%06d", i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, alone.Data) {
				t.Fatalf("tile %d fit cold but its stream differs from its leader-alone stream", i)
			}
		default:
			t.Fatalf("tile %d: basis decision %q", i, st.BasisDecision)
		}
	}

	// And the archive decodes like the reuse-off one reconstructs.
	var offBuf bytes.Buffer
	if _, err := dpz.CompressTiled(bytes.NewReader(raw), f.Dims, tileRows, opts, &offBuf); err != nil {
		t.Fatal(err)
	}
	readAll := func(b []byte) []float64 {
		tr, err := dpz.OpenTiled(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := tr.ReadAllParallel(1)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	reuse, offRec := readAll(ref), readAll(offBuf.Bytes())
	if dpz.PSNR(f.Data, reuse) < minPSNR {
		t.Fatalf("reuse reconstruction PSNR %v dB", dpz.PSNR(f.Data, reuse))
	}
	// Reuse may pick a different (guard-approved) basis than the cold fit,
	// so reconstructions need not be bitwise equal — but both must honor
	// the same error bound.
	if offPSNR, rePSNR := dpz.PSNR(f.Data, offRec), dpz.PSNR(f.Data, reuse); rePSNR < offPSNR-3 {
		t.Fatalf("reuse PSNR %v dB much worse than cold %v dB", rePSNR, offPSNR)
	}
}

func TestBasisReuseSingleCompressUsesCache(t *testing.T) {
	f := dataset.CESM("CLDHGH", 64, 64, 11)
	o := dpz.LooseOptions()
	ref, err := dpz.CompressFloat64(f.Data, f.Dims, o)
	if err != nil {
		t.Fatal(err)
	}

	cache := dpz.NewBasisCache(4)
	o.BasisReuse = true
	o.BasisCache = cache
	first, err := dpz.CompressFloat64(f.Data, f.Dims, o)
	if err != nil {
		t.Fatal(err)
	}
	// First use is an all-miss leader: cold path, bit-identical stream.
	if !bytes.Equal(first.Data, ref.Data) {
		t.Fatal("first cache-on compress differs from cache-off")
	}
	if first.Stats.BasisDecision != "cold" {
		t.Fatalf("first decision %q, want cold", first.Stats.BasisDecision)
	}
	second, err := dpz.CompressFloat64(f.Data, f.Dims, o)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.BasisDecision != "accept" {
		t.Fatalf("second decision %q, want accept for identical data", second.Stats.BasisDecision)
	}
	if second.Stats.TVEAchieved < o.TVE {
		t.Fatalf("accepted fit achieved TVE %v below target %v", second.Stats.TVEAchieved, o.TVE)
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Inserts != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss / 1 hit / 1 insert", st)
	}
}

// TestBasisReusePipelineFailureWakesFollowers drives the shared
// tiled/batch pipeline into failure with reuse on: a tiled input that
// ends inside a follower tile, and a batch whose options fail validation,
// so the leader fails while its followers wait on it. Every call must
// return its own error before the deadline and leave no goroutine waiting
// on a basis, and a later run through the same cache must not find a
// leader slot that was never published or retracted.
func TestBasisReusePipelineFailureWakesFollowers(t *testing.T) {
	f := dataset.CESM("CLDHGH", 96, 64, 5)
	const tileRows = 8
	raw := float32Bytes(f.Data)
	// Tile 0 leads; the input ends halfway through tile 5, a follower.
	torn := raw[:4*(5*tileRows+tileRows/2)*f.Dims[1]]
	fields := driftedFields(8)

	for _, w := range detWorkers {
		o := dpz.LooseOptions()
		o.Workers = w
		o.BasisReuse = true
		o.BasisCache = dpz.NewBasisCache(8)

		err := withinDeadline(t, func() error {
			_, err := dpz.CompressTiled(bytes.NewReader(torn), f.Dims, tileRows, o, io.Discard)
			return err
		})
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("workers=%d torn tiled input: err = %v, want the truncated read", w, err)
		}
		noCandidateWaiters(t)
		// The cache the failed call used serves a complete run.
		err = withinDeadline(t, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_, err := dpz.CompressTiledContext(ctx, bytes.NewReader(raw), f.Dims, tileRows, o, io.Discard)
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: complete run after a failed one: %v", w, err)
		}

		bad := o
		bad.P = -1
		err = withinDeadline(t, func() error {
			aw, err := dpz.NewArchiveWriter(io.Discard)
			if err != nil {
				return err
			}
			_, err = aw.CompressBatch(fields, bad)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), `archive field "tile-00"`) || !strings.Contains(err.Error(), "P must be positive") {
			t.Fatalf("workers=%d invalid batch: err = %v, want the leader's validation error", w, err)
		}
		noCandidateWaiters(t)
	}
}

// withinDeadline runs call and returns its error, failing the test if it
// has not returned within two minutes.
func withinDeadline(t *testing.T, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Minute):
		t.Fatal("call still blocked after two minutes")
		return nil
	}
}

// noCandidateWaiters fails the test if any goroutine is blocked waiting
// for a leader's basis.
func noCandidateWaiters(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "basiscache.(*Handle).Candidate") {
		t.Fatalf("a goroutine still waits on a basis:\n%s", stacks)
	}
}

// BenchmarkTiledBasisReuse measures the tiled pipeline over a tall
// smooth field with the cross-tile basis cache on and off; CI's
// benchmark-smoke job runs it for one iteration as an end-to-end check
// of the reuse path.
func BenchmarkTiledBasisReuse(b *testing.B) {
	f := dataset.CESM("CLDHGH", 512, 128, 7)
	raw := float32Bytes(f.Data)
	for _, reuse := range []bool{false, true} {
		name := "off"
		if reuse {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			o := dpz.LooseOptions()
			o.BasisReuse = reuse
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dpz.CompressTiled(bytes.NewReader(raw), f.Dims, 32, o, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
