// Determinism of the pipelined hot path: every parallel stage must
// produce byte-identical output for every worker count. These tests are
// also the -race coverage of the pipeline paths (run with small tiles so
// the source, workers and sink genuinely overlap).
package dpz_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dpz"
	"dpz/internal/core"
	"dpz/internal/dataset"
)

var detWorkers = []int{1, 2, 8}

func TestCompressWorkersByteIdentical(t *testing.T) {
	f := dataset.CESM("FLDSC", 128, 256, 17)
	// The default options on the flat CLDHGH-like field give k ≈ M = 256,
	// so the covariance Gram and the projection both split across workers.
	flat := dataset.CESM("CLDHGH", 256, 512, 2001)
	// With sampling on, Stage 2 fits k_e components on the sampled rows
	// with FitExact at a fixed K: on the flat field k_e > M/8, so
	// eigen.TopK takes its dense side; on the Channel field (M=288,
	// k=14) it runs subspace iteration. Knee selection without sampling
	// takes FitExact's knee arm.
	channel := dataset.Channel(48, 1002)
	loose := func(sampling bool, sel dpz.Selection) dpz.Options {
		o := dpz.LooseOptions()
		o.UseSampling = sampling
		o.Selection = sel
		return o
	}
	for _, mk := range []struct {
		name  string
		field *dataset.Field
		opts  dpz.Options
	}{
		{"loose", f, dpz.LooseOptions()},
		{"strict", f, dpz.StrictOptions()},
		{"default-flat", flat, dpz.DefaultOptions()},
		{"sampling-tve", flat, loose(true, dpz.TVEThreshold)},
		{"sampling-knee", flat, loose(true, dpz.KneePoint)},
		{"sampling-iterate", channel, loose(true, dpz.TVEThreshold)},
		{"knee", flat, loose(false, dpz.KneePoint)},
	} {
		f := mk.field
		t.Run(mk.name, func(t *testing.T) {
			var ref []byte
			for _, w := range detWorkers {
				o := mk.opts
				o.Workers = w
				res, err := dpz.CompressFloat64(f.Data, f.Dims, o)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if ref == nil {
					ref = res.Data
					continue
				}
				if !bytes.Equal(res.Data, ref) {
					t.Fatalf("workers=%d stream differs from workers=%d", w, detWorkers[0])
				}
			}
			// Decoding must not depend on the worker count either.
			base, _, err := core.Decompress(ref, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range detWorkers[1:] {
				got, _, err := core.Decompress(ref, w)
				if err != nil {
					t.Fatalf("decompress workers=%d: %v", w, err)
				}
				for i := range got {
					if got[i] != base[i] {
						t.Fatalf("decompress workers=%d: value %d differs", w, i)
					}
				}
			}
		})
	}
}

// tiledArchive compresses f as a tiled archive with the given geometry.
func tiledArchive(t *testing.T, f *dataset.Field, tileRows, workers int) []byte {
	t.Helper()
	raw := make([]byte, 4*f.Len())
	for i, v := range f.Data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(v)))
	}
	o := dpz.LooseOptions()
	o.Workers = workers
	var buf bytes.Buffer
	if _, err := dpz.CompressTiled(bytes.NewReader(raw), f.Dims, tileRows, o, &buf); err != nil {
		t.Fatalf("tileRows=%d workers=%d: %v", tileRows, workers, err)
	}
	return buf.Bytes()
}

func TestTiledWorkersByteIdentical(t *testing.T) {
	f := dataset.CESM("CLDHGH", 64, 96, 5)
	// tileRows=1 gives 64 single-row tiles: the pipeline's source, worker
	// pool and ordered sink all run concurrently under -race.
	for _, tileRows := range []int{1, 5, 64} {
		t.Run(fmt.Sprintf("tileRows=%d", tileRows), func(t *testing.T) {
			ref := tiledArchive(t, f, tileRows, 1)
			for _, w := range []int{4, 8} {
				if got := tiledArchive(t, f, tileRows, w); !bytes.Equal(got, ref) {
					t.Fatalf("workers=%d archive differs from serial", w)
				}
			}
			tr, err := dpz.OpenTiled(bytes.NewReader(ref), int64(len(ref)))
			if err != nil {
				t.Fatal(err)
			}
			serial, dims, err := tr.ReadAllParallel(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != f.Len() || dims[0] != f.Dims[0] {
				t.Fatalf("ReadAll: %d values, dims %v", len(serial), dims)
			}
			par, _, err := tr.ReadAllParallel(8)
			if err != nil {
				t.Fatal(err)
			}
			for i := range par {
				if par[i] != serial[i] {
					t.Fatalf("parallel read differs at %d", i)
				}
			}
		})
	}
}

func TestCompressBatchMatchesSequential(t *testing.T) {
	mkFields := func() []dpz.ArchiveField {
		fields := make([]dpz.ArchiveField, 5)
		for i := range fields {
			f := dataset.CESM(fmt.Sprintf("F%d", i), 40, 60, int64(100+i))
			fields[i] = dpz.ArchiveField{Name: f.Name, Data: f.Data, Dims: f.Dims}
		}
		return fields
	}
	fields := mkFields()
	o := dpz.LooseOptions()

	// Reference: one-by-one appends with a serial writer.
	var seq bytes.Buffer
	aw, err := dpz.NewArchiveWriter(&seq)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 1
	var seqStats []dpz.Stats
	for _, f := range fields {
		s, err := aw.CompressFloat64(f.Name, f.Data, f.Dims, o)
		if err != nil {
			t.Fatal(err)
		}
		seqStats = append(seqStats, *s)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 4, 8} {
		var batch bytes.Buffer
		bw, err := dpz.NewArchiveWriter(&batch)
		if err != nil {
			t.Fatal(err)
		}
		o.Workers = w
		stats, err := bw.CompressBatch(fields, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch.Bytes(), seq.Bytes()) {
			t.Fatalf("workers=%d batch archive differs from sequential", w)
		}
		if len(stats) != len(seqStats) {
			t.Fatalf("workers=%d: %d stats", w, len(stats))
		}
		for i := range stats {
			if stats[i].CompressedBytes != seqStats[i].CompressedBytes {
				t.Fatalf("workers=%d field %d: stats mismatch", w, i)
			}
		}
	}
}

func TestCompressBatchErrors(t *testing.T) {
	var buf bytes.Buffer
	aw, err := dpz.NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats, err := aw.CompressBatch(nil, dpz.LooseOptions()); err != nil || stats != nil {
		t.Fatalf("empty batch: %v, %v", stats, err)
	}
	bad := []dpz.ArchiveField{
		{Name: "ok", Data: make([]float64, 600), Dims: []int{20, 30}},
		{Name: "bad", Data: make([]float64, 7), Dims: []int{2, 3}},
	}
	if _, err := aw.CompressBatch(bad, dpz.LooseOptions()); err == nil {
		t.Fatal("mismatched dims accepted")
	}
}
