package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"dpz"
	"dpz/internal/dataset"
)

// series describes one snapshot workload: a time series of one synthetic
// CESM field, compressed into an archive and read back.
type series struct {
	workload  string
	field     string // dataset.CESM field name
	fieldSeed int64  // dataset seed of the base field
	rows      int    // snapshot rows; M, the block count, for these shapes
	cols      int
	flat      bool // spectral regime the series must stay in
}

var (
	// flatSeries is the flat-spectrum regime: k close to M, so the dense
	// eigensolve, the VIF probe and the k≈M projection dominate.
	flatSeries = series{workload: "snapshots-flat", field: "CLDHGH", fieldSeed: 2001, rows: 256, cols: 512, flat: true}
	// lowRankSeries is the low-rank regime: k far below M.
	lowRankSeries = series{workload: "snapshots-lowrank", field: "PHIS", fieldSeed: 2003, rows: 256, cols: 512, flat: false}
)

const (
	// snapCount is fixed, not time-driven, so cr and psnr_db depend on the
	// seed alone.
	snapCount = 3
	// minRounds makes at least 102 compresses, so the p90 tail always
	// has 10 samples beyond it however slow the calls are.
	minRounds = 34
	// decodesPerRound is how often a round reads each snapshot back. A
	// decode takes a tenth of a compress or less, so this many give the
	// decode median about as much of the window as the compress median.
	decodesPerRound = 4
	// snapSetupRepeats is how many times a run builds the series. One
	// build takes tens of milliseconds, so a median over few of them
	// would follow every hiccup of the host.
	snapSetupRepeats = 9

	// The regime guard: a flat series keeps k/M at or above
	// flatMinKOverM, a low-rank one at or below lowRankMaxKOverM.
	flatMinKOverM    = 0.9
	lowRankMaxKOverM = 0.5
)

type snapInputs struct {
	dims   []int
	snaps  [][]float64
	vrange float64 // value range over the whole series, for PSNR
	offset int     // first snapshot's eastward shift in columns
	step   int     // columns advected per snapshot
}

// buildSnapshots makes the series for a seed: the base field rolled east
// by a seed-chosen offset, then a few more columns per step.
func buildSnapshots(s series, seed int64) (*snapInputs, error) {
	base := dataset.CESM(s.field, s.rows, s.cols, s.fieldSeed)
	rng := rand.New(rand.NewSource(seed))
	in := &snapInputs{dims: base.Dims, offset: rng.Intn(s.cols), step: 1 + rng.Intn(4)}
	lo, hi := math.Inf(1), math.Inf(-1)
	for t := 0; t < snapCount; t++ {
		snap := advect(base.Data, s.rows, s.cols, in.offset+t*in.step)
		for _, v := range snap {
			lo, hi = min(lo, v), max(hi, v)
		}
		in.snaps = append(in.snaps, snap)
	}
	in.vrange = hi - lo
	return in, nil
}

// advect returns src (rows×cols, row-major) with every row rotated east
// by shift columns.
func advect(src []float64, rows, cols, shift int) []float64 {
	shift %= cols
	out := make([]float64, len(src))
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		dst := out[r*cols : (r+1)*cols]
		copy(dst[shift:], row[:cols-shift])
		copy(dst[:shift], row[cols-shift:])
	}
	return out
}

// runSnapshots is the closed-loop archive workload: one caller writes the
// series into a fresh in-memory archive and reads every snapshot back
// with a full decode, round after round, until the window has passed.
// Compresses and decodes alternate, so both medians sample the whole
// window rather than one burst each a short host slowdown could cover.
// The first round is the one checked in depth and the one cr and psnr_db
// come from; every later round must store byte-identical streams. Each
// call starts after a forced GC, so it starts from the same heap and
// neither the timings nor the peak RSS depend on where the collector
// happened to be. Throughputs divide by median call times.
func runSnapshots(r *run, s series) error {
	in, setupS, err := repeatSetup(snapSetupRepeats, func() (*snapInputs, error) { return buildSnapshots(s, r.seed) }, func(*snapInputs) {})
	if err != nil {
		return err
	}
	r.setE2E("setup_s", setupS, "s")
	fmt.Printf("series: %d snapshots of %s %dx%d (dataset seed %d), shifted east %d columns, advected %d per step\n",
		snapCount, s.field, s.rows, s.cols, s.fieldSeed, in.offset, in.step)
	opts := dpz.DefaultOptions()
	opts.Workers = r.workers
	rawBytes := 4 * s.rows * s.cols
	names := make([]string, snapCount)
	for t := range names {
		names[t] = fmt.Sprintf("%s-t%03d", s.field, t)
	}

	var (
		stats             = make([]*dpz.Stats, snapCount)
		streams           = make([][]byte, snapCount) // first round's, checked in depth
		streamBytes, kept int
		writeLat, readLat []float64
		sse               float64
		nvals, rounds     int
	)
	mem0 := readMem()
	start := time.Now()
	for ; rounds < minRounds || time.Since(start) < r.window; rounds++ {
		first := rounds == 0
		var buf bytes.Buffer
		aw, err := dpz.NewArchiveWriter(&buf)
		if err != nil {
			return err
		}
		for t, snap := range in.snaps {
			if !first && streams[t] == nil {
				continue
			}
			runtime.GC()
			h := r.tr.begin("archive.compress", 0, 1000*rounds+t+1)
			st, err := aw.CompressFloat64(names[t], snap, in.dims, opts)
			if err != nil {
				h.fail()
				r.op(err)
				continue
			}
			writeLat = append(writeLat, h.end().Seconds())
			if first {
				stats[t] = st
			}
		}
		if err := aw.Close(); err != nil {
			return fmt.Errorf("closing archive: %w", err)
		}
		archive := buf.Bytes()
		ar, err := dpz.OpenArchive(bytes.NewReader(archive), int64(len(archive)))
		if !r.op(err) {
			continue
		}
		for t, name := range names {
			if first && stats[t] == nil || !first && streams[t] == nil {
				continue
			}
			stream, err := ar.Stream(name)
			if err == nil && !first && !bytes.Equal(stream, streams[t]) {
				err = fmt.Errorf("round %d: %s differs from the first round's stream", rounds, name)
			}
			if first {
				// Every stored stream must verify and carry the k its
				// compression reported; the regime guard then checks that k.
				var info *dpz.StreamInfo
				if err == nil {
					err = dpz.Verify(stream)
				}
				if err == nil {
					info, err = dpz.Stat(stream)
				}
				if err == nil && info.Components != stats[t].K {
					err = fmt.Errorf("%s: stream k=%d, compress reported k=%d", name, info.Components, stats[t].K)
				}
				if !r.op(err) {
					continue
				}
				streams[t] = append([]byte(nil), stream...)
				streamBytes += len(stream)
				kept++
				kOverM := float64(info.Components) / float64(info.Blocks)
				fmt.Printf("snapshot %d: pca.k=%d M=%d k/M=%.4f stream=%d bytes cr=%.4f\n",
					t, info.Components, info.Blocks, kOverM, len(stream), info.CompressionRatio)
				if s.flat && kOverM < flatMinKOverM || !s.flat && kOverM > lowRankMaxKOverM {
					return fmt.Errorf("seed %d leaves the %s regime: snapshot %d has k/M=%.4f", r.seed, s.workload, t, kOverM)
				}
			} else if !r.op(err) {
				continue
			}

			for rep := 0; rep < decodesPerRound; rep++ {
				runtime.GC()
				h := r.tr.begin("archive.decompress", 0, 1000*rounds+100*(rep+1)+t)
				got, dims, err := ar.DecompressFloat64(name)
				d := h.end()
				if err == nil {
					err = checkDecoded(got, dims, in.dims)
				}
				if !r.op(err) {
					continue
				}
				readLat = append(readLat, d.Seconds())
				if first && rep == 0 {
					for i, v := range got {
						e := v - in.snaps[t][i]
						sse += e * e
					}
					nvals += len(got)
				}
			}
		}
	}
	elapsed := time.Since(start)
	mem1 := readMem()
	fmt.Printf("window: %.3f s, %d rounds, %d compresses, %d decodes\n", elapsed.Seconds(), rounds, len(writeLat), len(readLat))
	if len(writeLat) == 0 || len(readLat) == 0 || streamBytes == 0 || nvals == 0 {
		return fmt.Errorf("no snapshot completed a round trip")
	}

	r.setE2E("compress_mbps", float64(rawBytes)/median(writeLat)/1e6, "MB/s")
	r.setE2E("decompress_mbps", float64(rawBytes)/median(readLat)/1e6, "MB/s")
	r.setE2E("cr", float64(rawBytes*kept)/float64(streamBytes), "x")
	r.setE2E("psnr_db", psnr(in.vrange, sse/float64(nvals)), "dB")
	setLatency(r, "read", readLat, r.layer, closedLoopTail)
	setLatency(r, "write", writeLat, r.e2e, closedLoopTail)
	// A closed loop has no offered rate; its goodput is snapshots written
	// and read back per second of busy time.
	r.setE2E("goodput_rps", 1/(median(writeLat)+median(readLat)), "req/s")
	setMemLayers(r, mem0, mem1)

	if r.tr == nil {
		return nil
	}
	first := slices.IndexFunc(streams, func(b []byte) bool { return b != nil })
	if err := replayCompressDecode(r, in.snaps[first], in.dims, opts, streams[first], *stats[first],
		"ArchiveWriter.CompressFloat64", "ArchiveReader.DecompressFloat64", median(writeLat), median(readLat)); err != nil {
		return err
	}
	var nonNil [][]byte
	for _, st := range streams {
		if st != nil {
			nonNil = append(nonNil, st)
		}
	}
	replayReads(r, nonNil, nonNil)
	setBypassedServeLayers(r)
	return nil
}

// checkDecoded checks a decode's shape and that every value is finite.
func checkDecoded(got []float64, dims, want []int) error {
	if !slices.Equal(dims, want) {
		return fmt.Errorf("decoded dims %v, want %v", dims, want)
	}
	n := 1
	for _, d := range want {
		n *= d
	}
	if len(got) != n {
		return fmt.Errorf("decoded %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("decoded value %d is %v", i, v)
		}
	}
	return nil
}

// setLatency sets the end-to-end <kind>_p50_ms and puts <kind>_tail_ms
// in tails, from latencies in seconds, and prints which percentile the
// tail is and over how many samples. The read tail goes to the per-layer
// metrics: on serve-retrieval its quartile spread over ten seeds reached
// 25% on a 2-CPU virtual machine (p99 falls where cache misses of
// different depths meet), the largest bound an end-to-end metric may have.
func setLatency(r *run, kind string, lat []float64, tails map[string]metric, grid []float64) {
	v, pct, n := tail(lat, grid)
	r.setE2E(kind+"_p50_ms", 1000*median(lat), "ms")
	tails[kind+"_tail_ms"] = metric{1000 * v, "ms"}
	fmt.Printf("%s latency: p50 %.3f ms, tail p%g %.3f ms over %d samples (%d beyond)\n",
		kind, 1000*median(lat), pct, 1000*v, n, n-int(math.Ceil(pct/100*float64(n))))
}
