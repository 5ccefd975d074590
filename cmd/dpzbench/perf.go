package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"dpz"
	"dpz/client"
	"dpz/internal/core"
	"dpz/internal/dataset"
	"dpz/internal/server"
)

// The -json mode: machine-readable throughput records for the pipelined
// hot path (compress, decompress, tiled) across worker counts, written
// to BENCH_<rev>.json so runs are comparable across revisions.

// perfWorkers is the default worker sweep of the -json suite.
var perfWorkers = []int{1, 2, 4, 8}

// perfRecord is one benchmark configuration's measurement.
type perfRecord struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// StageNs is the stage trace of one representative (non-benchmark)
	// run, its span times summed by name in nanoseconds; for tiled and
	// batch records it is summed over the archive's streams.
	StageNs map[string]time.Duration `json:"stage_ns,omitempty"`
	// BasisDecisions counts the reuse decisions of the representative run
	// for basis-reuse records.
	BasisDecisions map[string]int `json:"basis_decisions,omitempty"`
	// Quality is what the representative run of a compress, tiled or
	// batch record produced; the -baseline gate holds it.
	Quality *quality `json:"quality,omitempty"`
}

// quality is a compressed stream's or archive's outcome: its compression
// ratio, the PSNR, max abs error and mean relative error θ (mean abs
// error over the input's range) of its full decode against the input,
// its component count, whether Stage 2 standardized the features and the
// TVE its components reached on the full data (Stats.TVEAchieved), with
// the bytes in (4 per value) and out. For an archive, CR and the bytes
// cover the whole archive, the errors all of its decoded values, K is
// summed over its streams, Standardized is set when any stream is and
// TVE is the lowest of its streams'.
type quality struct {
	CR           float64 `json:"cr"`
	PSNR         float64 `json:"psnr_db"`
	MaxAbsErr    float64 `json:"max_abs_err"`
	Theta        float64 `json:"theta"`
	K            int     `json:"k"`
	Standardized bool    `json:"standardized"`
	TVE          float64 `json:"tve"`
	BytesIn      int     `json:"bytes_in"`
	BytesOut     int     `json:"bytes_out"`
}

// qualityOf decodes res and measures it against data, its input.
func qualityOf(data []float64, res *dpz.Result) (*quality, error) {
	out, _, err := dpz.DecompressFloat64(res.Data)
	if err != nil {
		return nil, err
	}
	return &quality{
		CR:           res.Stats.CRTotal,
		PSNR:         dpz.PSNR(data, out),
		MaxAbsErr:    dpz.MaxAbsError(data, out),
		Theta:        dpz.MeanRelativeError(data, out),
		K:            res.Stats.K,
		Standardized: res.Stats.Standardized,
		TVE:          res.Stats.TVEAchieved,
		BytesIn:      res.Stats.OrigBytes,
		BytesOut:     len(res.Data),
	}, nil
}

// archiveQuality measures an archive of len(data) values whose streams
// have stats sts and whose full decode is out.
func archiveQuality(data, out []float64, archiveBytes int, sts []dpz.Stats) *quality {
	q := &quality{
		CR:        float64(4*len(data)) / float64(archiveBytes),
		PSNR:      dpz.PSNR(data, out),
		MaxAbsErr: dpz.MaxAbsError(data, out),
		Theta:     dpz.MeanRelativeError(data, out),
		BytesIn:   4 * len(data),
		BytesOut:  archiveBytes,
		TVE:       1,
	}
	for _, st := range sts {
		q.K += st.K
		q.Standardized = q.Standardized || st.Standardized
		q.TVE = min(q.TVE, st.TVEAchieved)
	}
	return q
}

// tiledQuality writes the float32 field raw as a tiled archive and
// measures the archive against data, the same values in float64. It
// also returns the per-tile stats.
func tiledQuality(data []float64, raw []byte, dims []int, tileRows int, o dpz.Options) (*quality, []dpz.Stats, error) {
	var buf bytes.Buffer
	sts, err := dpz.CompressTiled(bytes.NewReader(raw), dims, tileRows, o, &buf)
	if err != nil {
		return nil, nil, err
	}
	tr, err := dpz.OpenTiled(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, nil, err
	}
	out, _, err := tr.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	return archiveQuality(data, out, buf.Len(), sts), sts, nil
}

// batchQuality writes fields as one archive with CompressBatch and
// measures the archive against the fields' values in order. It also
// returns the per-field stats.
func batchQuality(fields []dpz.ArchiveField, o dpz.Options) (*quality, []dpz.Stats, error) {
	var buf bytes.Buffer
	aw, err := dpz.NewArchiveWriter(&buf)
	if err != nil {
		return nil, nil, err
	}
	sts, err := aw.CompressBatch(fields, o)
	if err != nil {
		return nil, nil, err
	}
	if err := aw.Close(); err != nil {
		return nil, nil, err
	}
	ar, err := dpz.OpenArchive(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, nil, err
	}
	var data, out []float64
	for _, f := range fields {
		dec, _, err := ar.DecompressFloat64(f.Name)
		if err != nil {
			return nil, nil, err
		}
		data = append(data, f.Data...)
		out = append(out, dec...)
	}
	return archiveQuality(data, out, buf.Len(), sts), sts, nil
}

// archiveStages sums the stage traces of an archive's streams by name.
func archiveStages(sts []dpz.Stats) map[string]time.Duration {
	var all dpz.Trace
	for _, st := range sts {
		all = append(all, st.Trace...)
	}
	return all.ByName()
}

// decodeStages is the stage trace of one decode of stream at rank,
// summed by name.
func decodeStages(stream []byte, workers, rank int) (map[string]time.Duration, error) {
	var tr dpz.Trace
	_, _, err := core.Decompress(context.Background(), stream, workers, rank, &tr)
	return tr.ByName(), err
}

// perfReport is the BENCH_<rev>.json document.
type perfReport struct {
	Revision   string  `json:"revision"`
	Dirty      bool    `json:"dirty"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Scale      float64 `json:"scale"`
	// Repeat is how many times each benchmark configuration ran; every
	// record is the median (by ns/op) of that many runs. 1 = single run.
	Repeat  int          `json:"repeat"`
	Dims    []int        `json:"dims"`
	Records []perfRecord `json:"records"`
	Notes   []string     `json:"notes,omitempty"`
}

// buildRevision returns the VCS revision baked into the binary (12 hex
// chars) and whether the tree was dirty; "dev" when built without VCS
// stamping (e.g. go run).
func buildRevision() (string, bool) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev", false
	}
	rev, dirty := "dev", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			if len(s.Value) >= 12 {
				rev = s.Value[:12]
			} else if s.Value != "" {
				rev = s.Value
			}
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}

// perfField builds the CLDHGH-scale synthetic the suite measures. Scale 1
// is the half-resolution 900x1800 grid the repo's scaling benches use.
func perfField(scale float64) *dataset.Field {
	rows := max(64, int(900*scale+0.5))
	cols := max(128, int(1800*scale+0.5))
	return dataset.CESM("CLDHGH", rows, cols, 2001)
}

// record converts a testing.BenchmarkResult to a perfRecord.
func record(name string, workers int, r testing.BenchmarkResult) perfRecord {
	mbps := 0.0
	if s := r.T.Seconds(); s > 0 {
		mbps = float64(r.Bytes) * float64(r.N) / s / 1e6
	}
	return perfRecord{
		Name:        name,
		Workers:     workers,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		MBPerSec:    mbps,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// runPerfSuite measures the three pipeline entry points at each worker
// count and writes BENCH_<rev>.json in the current directory. When
// baseline names a previous report, the new numbers are gated against it
// (see compareBaseline) and a regression beyond maxRegress percent is an
// error. forceWorkers keeps worker counts above NumCPU in the sweep; by
// default they are skipped (on a small host they only measure scheduler
// overhead, and their records then pollute cross-revision comparisons).
func runPerfSuite(scale float64, workers []int, notes []string, baseline string, maxRegress float64, forceWorkers bool, repeat int, out io.Writer) error {
	if len(workers) == 0 {
		workers = perfWorkers
	}
	if repeat < 1 {
		repeat = 1
	}
	// bench runs one benchmark configuration repeat times and keeps the
	// median run (sorted by ns/op, element N/2). A single run on a
	// small/shared host is at the mercy of scheduler noise; the median
	// absorbs one-off stalls without averaging them into the record.
	bench := func(fn func(b *testing.B)) testing.BenchmarkResult {
		results := make([]testing.BenchmarkResult, 0, repeat)
		for i := 0; i < repeat; i++ {
			results = append(results, testing.Benchmark(fn))
		}
		sort.Slice(results, func(i, j int) bool { return results[i].NsPerOp() < results[j].NsPerOp() })
		return results[len(results)/2]
	}
	if !forceWorkers {
		kept := workers[:0]
		var skipped []int
		for _, w := range workers {
			if w > runtime.NumCPU() {
				skipped = append(skipped, w)
				continue
			}
			kept = append(kept, w)
		}
		if len(kept) == 0 {
			kept = append(kept, runtime.NumCPU())
		}
		if len(skipped) > 0 {
			notes = append(notes, fmt.Sprintf(
				"skipped worker counts %v above NumCPU=%d (-force-workers includes them)", skipped, runtime.NumCPU()))
		}
		workers = kept
	}
	f := perfField(scale)
	rawBytes := int64(4 * f.Len())
	fmt.Fprintf(out, "perf suite: %s %v (%d values), workers %v\n", f.Name, f.Dims, f.Len(), workers)

	var records []perfRecord
	add := func(name string, w int, r testing.BenchmarkResult) *perfRecord {
		rec := record(name, w, r)
		records = append(records, rec)
		fmt.Fprintf(out, "%-12s workers=%d  %12d ns/op  %8.2f MB/s  %8d allocs/op\n",
			name, w, rec.NsPerOp, rec.MBPerSec, rec.AllocsPerOp)
		return &records[len(records)-1]
	}

	// compress is the flat CLDHGH regime (k ≈ M). compress-lowrank
	// measures the k ≪ M regime on a PHIS field of the same size, where
	// Stage 2 computes only the few vectors kept. compress-sampled runs
	// Algorithm 2 on that field: k_e from the sampled subsets, and a
	// fixed-k fit of their rows. Each records the stage breakdown and the
	// quality of one representative run.
	lf := dataset.CESM("PHIS", f.Dims[0], f.Dims[1], 2001)
	sampled := dpz.LooseOptions()
	sampled.UseSampling = true
	for _, c := range []struct {
		name  string
		field *dataset.Field
		opts  dpz.Options
	}{
		{"compress", f, dpz.LooseOptions()},
		{"compress-lowrank", lf, dpz.LooseOptions()},
		{"compress-sampled", lf, sampled},
	} {
		for _, w := range workers {
			cf, o := c.field, c.opts
			o.Workers = w
			rec := add(c.name, w, bench(func(b *testing.B) {
				b.SetBytes(rawBytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := dpz.CompressFloat64(cf.Data, cf.Dims, o); err != nil {
						b.Fatal(err)
					}
				}
			}))
			probe, err := dpz.CompressFloat64(cf.Data, cf.Dims, o)
			if err != nil {
				return err
			}
			rec.StageNs = probe.Stats.Trace.ByName()
			if rec.Quality, err = qualityOf(cf.Data, probe); err != nil {
				return err
			}
		}
	}

	res, err := dpz.CompressFloat64(f.Data, f.Dims, dpz.LooseOptions())
	if err != nil {
		return err
	}
	// decompress is the flat-spectrum CLDHGH stream (k≈M), whose full
	// decode costs about M row transforms and an M×N×M GEMM;
	// decompress-lowrank is the PHIS stream (k ≪ M), where the rank-space
	// decode pays for k+1 row transforms and an M×N×(k+1) GEMM.
	lres, err := dpz.CompressFloat64(lf.Data, lf.Dims, dpz.LooseOptions())
	if err != nil {
		return err
	}
	for _, cfg := range []struct {
		name   string
		stream []byte
	}{
		{"decompress", res.Data},
		{"decompress-lowrank", lres.Data},
	} {
		for _, w := range workers {
			w, stream := w, cfg.stream
			rec := add(cfg.name, w, bench(func(b *testing.B) {
				b.SetBytes(rawBytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := core.Decompress(context.Background(), stream, w, 0, nil); err != nil {
						b.Fatal(err)
					}
				}
			}))
			if rec.StageNs, err = decodeStages(stream, w, 0); err != nil {
				return err
			}
		}
	}

	// Progressive-preview records: decode only the leading 1/4/16
	// components of the PHIS stream, against its full decode
	// (preview-fulldecode, the fidelity the ladder converges to). PHIS
	// keeps k high at bench scale, so the rank split is meaningful; the
	// preview win is skipping the dequantize, row-transform and recompose
	// work for every component above the cut. Stream bytes do not depend
	// on the worker count, so lres serves every worker setting.
	pw := workers[len(workers)-1]
	prevNs := map[string]int64{}
	prevRanks := []int{1, 4, 16}
	for _, rk := range prevRanks {
		if rk >= lres.Stats.K {
			continue // the full record below covers it
		}
		rk := rk
		name := fmt.Sprintf("preview-r%d", rk)
		rec := add(name, pw, bench(func(b *testing.B) {
			b.SetBytes(rawBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Decompress(context.Background(), lres.Data, pw, rk, nil); err != nil {
					b.Fatal(err)
				}
			}
		}))
		prevNs[name] = rec.NsPerOp
		if rec.StageNs, err = decodeStages(lres.Data, pw, rk); err != nil {
			return err
		}
	}
	rec := add("preview-fulldecode", pw, bench(func(b *testing.B) {
		b.SetBytes(rawBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Decompress(context.Background(), lres.Data, pw, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if rec.StageNs, err = decodeStages(lres.Data, pw, 0); err != nil {
		return err
	}
	if full, r1 := rec.NsPerOp, prevNs["preview-r1"]; full > 0 && r1 > 0 {
		notes = append(notes, fmt.Sprintf(
			"rank-1 preview is %.1fx faster than the full decode (k=%d)", float64(full)/float64(r1), lres.Stats.K))
	}

	raw := make([]byte, rawBytes)
	for i, v := range f.Data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(v)))
	}
	tileRows := max(1, f.Dims[0]/8)
	for _, w := range workers {
		o := dpz.LooseOptions()
		o.Workers = w
		rec := add("tiled", w, bench(func(b *testing.B) {
			b.SetBytes(rawBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dpz.CompressTiled(bytes.NewReader(raw), f.Dims, tileRows, o, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		}))
		var tstats []dpz.Stats
		if rec.Quality, tstats, err = tiledQuality(f.Data, raw, f.Dims, tileRows, o); err != nil {
			return err
		}
		rec.StageNs = archiveStages(tstats)
	}

	// Repeated-tile batch workload: the basis-reuse target case. The
	// batch holds similar smooth tiles (one synthetic slab with a tiny
	// per-tile drift), compressed with the cross-tile basis cache off and
	// on at the same options; the speedup comes from accepted fits
	// skipping the per-tile covariance build and eigensolve. PHIS is
	// the low-rank spec (k ≪ M, PCA-dominated) — the regime DPZ targets
	// and the one where skipping the eigensolve pays; tall tiles keep the
	// per-tile block count high enough that the PCA stage dominates.
	const batchTiles = 16
	btr := max(8, f.Dims[0]/2)
	base := dataset.CESM("PHIS", btr, f.Dims[len(f.Dims)-1], 2001)
	bfields := make([]dpz.ArchiveField, batchTiles)
	for t := range bfields {
		data := make([]float64, len(base.Data))
		drift := 1 + 1e-5*float64(t)
		for i, v := range base.Data {
			data[i] = v * drift
		}
		bfields[t] = dpz.ArchiveField{Name: fmt.Sprintf("tile-%02d", t), Data: data, Dims: base.Dims}
	}
	batchBytes := int64(4 * len(base.Data) * batchTiles)
	for _, reuse := range []bool{false, true} {
		name := "batch"
		if reuse {
			name = "batch-reuse"
		}
		for _, w := range workers {
			o := dpz.LooseOptions()
			o.Workers = w
			o.BasisReuse = reuse
			rec := add(name, w, bench(func(b *testing.B) {
				b.SetBytes(batchBytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					aw, err := dpz.NewArchiveWriter(io.Discard)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := aw.CompressBatch(bfields, o); err != nil {
						b.Fatal(err)
					}
					if err := aw.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}))
			var bstats []dpz.Stats
			if rec.Quality, bstats, err = batchQuality(bfields, o); err != nil {
				return err
			}
			rec.StageNs = archiveStages(bstats)
			if reuse {
				decisions := map[string]int{}
				for _, st := range bstats {
					if st.BasisDecision != "" {
						decisions[st.BasisDecision]++
					}
				}
				rec.BasisDecisions = decisions
			}
		}
	}

	// Client-overhead probe: the same small compress request driven
	// through a raw net/http POST and through dpz/client with its full
	// resilience stack armed (retry budget + hedging), against an
	// in-process daemon at zero fault rate. The delta between the two
	// records is the happy-path price of the retry/hedge machinery —
	// what the chaos suite pays back under faults. The field is small so
	// the HTTP + client path, not compression, dominates the cost.
	clf := dataset.CESM("CLDHGH", 64, 128, 2001)
	clRaw := make([]byte, 4*clf.Len())
	for i, v := range clf.Data {
		binary.LittleEndian.PutUint32(clRaw[4*i:], math.Float32bits(float32(v)))
	}
	srv := server.New(server.Config{Jobs: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	clURL := ts.URL + "/v1/compress?dims=64x128&scheme=loose&tve=4"
	add("server-raw", 1, bench(func(b *testing.B) {
		b.SetBytes(int64(len(clRaw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(clURL, "application/octet-stream", bytes.NewReader(clRaw))
			if err != nil {
				b.Fatal(err)
			}
			_, cerr := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if cerr != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("read body: %v, code %d", cerr, resp.StatusCode)
			}
		}
	}))
	cl := &client.Client{BaseURL: ts.URL, HedgeDelay: 250 * time.Millisecond}
	clOpts := client.CompressOptions{Scheme: "loose", TVENines: 4}
	add("server-client", 1, bench(func(b *testing.B) {
		b.SetBytes(int64(len(clRaw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Compress(context.Background(), clRaw, clf.Dims, clOpts); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// Read-path cache probe: the identical preview request served cold
	// (response cache disabled, every request decodes) and from the warmed
	// cache (key lookup + body copy, no scheduler admission, no decode).
	// The ratio between the two records is the steady-state win for
	// repeated identical previews. Unlike the client-overhead probe this
	// field and rank count are big enough that the decode, not the HTTP
	// round trip, dominates the cold path.
	cpf := dataset.CESM("CLDHGH", 256, 512, 2001)
	cpRes, err := dpz.CompressFloat64(cpf.Data, cpf.Dims, dpz.LooseOptions())
	if err != nil {
		return err
	}
	clStream := cpRes.Data
	cpBytes := int64(4 * cpf.Len())
	cpInfo, err := dpz.Stat(clStream)
	if err != nil {
		return err
	}
	cpRanks := min(cpInfo.Components, 32)
	cpURL := fmt.Sprintf("/v1/preview?ranks=%d", cpRanks)
	postPreview := func(b *testing.B, base, wantCache string) {
		resp, err := http.Post(base+cpURL, "application/octet-stream", bytes.NewReader(clStream))
		if err != nil {
			b.Fatal(err)
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("preview: read body: %v, code %d", cerr, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Dpz-Cache"); got != wantCache {
			b.Fatalf("preview: X-Dpz-Cache = %q, want %q", got, wantCache)
		}
	}
	coldSrv := server.New(server.Config{Jobs: 2, QueueDepth: 8, CacheEntries: -1})
	coldTS := httptest.NewServer(coldSrv.Handler())
	coldRec := add("server-preview-cold", 1, bench(func(b *testing.B) {
		b.SetBytes(cpBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			postPreview(b, coldTS.URL, "bypass")
		}
	}))
	coldTS.Close()
	coldDrainCtx, coldCancel := context.WithTimeout(context.Background(), 30*time.Second)
	coldDrainErr := coldSrv.Drain(coldDrainCtx)
	coldCancel()
	if coldDrainErr != nil {
		return coldDrainErr
	}
	// Warm the caching server (the first request is the one real decode),
	// then bench pure hits against it.
	warmResp, err := http.Post(ts.URL+cpURL, "application/octet-stream", bytes.NewReader(clStream))
	if err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, warmResp.Body); err != nil {
		return err
	}
	warmResp.Body.Close()
	if warmResp.StatusCode != http.StatusOK {
		return fmt.Errorf("cache warm preview: code %d", warmResp.StatusCode)
	}
	cachedRec := add("server-preview-cached", 1, bench(func(b *testing.B) {
		b.SetBytes(cpBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			postPreview(b, ts.URL, "hit")
		}
	}))
	if coldRec.NsPerOp > 0 && cachedRec.NsPerOp > 0 {
		notes = append(notes, fmt.Sprintf(
			"preview cache: cold %d ns/op vs cached %d ns/op (%.1fx)",
			coldRec.NsPerOp, cachedRec.NsPerOp,
			float64(coldRec.NsPerOp)/float64(cachedRec.NsPerOp)))
	}
	ts.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	drainErr := srv.Drain(drainCtx)
	cancel()
	if drainErr != nil {
		return drainErr
	}
	if st := cl.Stats(); st.Retries > 0 || st.Hedges > 0 {
		notes = append(notes, fmt.Sprintf(
			"client overhead probe saw %d retries / %d hedges at zero fault rate", st.Retries, st.Hedges))
	}

	rev, dirty := buildRevision()
	if runtime.NumCPU() == 1 {
		notes = append(notes, "single-CPU host: worker counts > 1 cannot improve wall clock here")
	}
	report := perfReport{
		Revision:   rev,
		Dirty:      dirty,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Repeat:     repeat,
		Dims:       f.Dims,
		Records:    records,
		Notes:      notes,
	}
	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("BENCH_%s.json", rev)
	if err := os.WriteFile(name, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", name)
	if baseline != "" {
		return compareBaseline(baseline, report, maxRegress, out)
	}
	return nil
}
