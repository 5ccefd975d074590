package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dpz"
	"dpz/internal/blockio"
	"dpz/internal/eigen"
	"dpz/internal/mat"
	"dpz/internal/parallel"
	"dpz/internal/pca"
	"dpz/internal/quant"
	"dpz/internal/sampling"
	"dpz/internal/stats"
	"dpz/internal/transform"
)

// replayCompressDecode calls the exported functions of each layer in
// pipeline order on one input, as the default compress and full decode
// do, and sets the per-layer metrics from their spans. compressS and
// decompressS are the medians of the spans of the public calls named
// compressCall and decompressCall; what the
// replayed layers do not account for of them is reported as the core
// residual (container, checksums, zlib and the retrieval index).
//
// The replay is valid only if it selects the k the stream stores and
// counts the escapes its compression reported.
func replayCompressDecode(r *run, data []float64, dims []int, o dpz.Options, stream []byte, st dpz.Stats,
	compressCall, decompressCall string, compressS, decompressS float64) error {
	info, err := dpz.Stat(stream)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	w := o.Workers
	root := r.tr.begin("replay.compress", 0, 0)
	parent := root.id
	at := func(name string) spanHandle { return r.tr.begin(name, parent, 0) }

	h := at("blockio.Decompose")
	shape, err := blockio.ShapeFor(dims, o.MaxBlocks)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	blocks, err := blockio.Decompose(data, shape)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	tDecompose := h.end()
	M, N := shape.M, shape.N

	h = at("transform.ForwardRows")
	transform.ForwardRows(blocks.Data(), M, N, w)
	tDCT := h.end()
	x := blocks.T()

	h = at("sampling.VIF")
	vif, err := sampling.VIF(x, 0.01, 0, o.Seed)
	tVIF := h.end()
	standardize := false
	if err == nil {
		var mean float64
		for _, v := range vif {
			mean += v
		}
		standardize = mean/float64(len(vif)) < sampling.VIFCutoff
	}

	h = at("mat.CovarianceCenteredInto")
	means := mat.ColMeans(x)
	var scales []float64
	if standardize {
		scales = mat.ColStds(x, means)
	}
	cov := mat.NewDense(M, M)
	mat.CovarianceCenteredInto(cov, x, means, scales, w)
	tGram := h.end()

	h = at("eigen.SymEig")
	if _, err := eigen.SymEig(cov); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	tEig := h.end()

	h = at("pca.Fit")
	model, err := pca.Fit(x, pca.Options{Standardize: standardize, Workers: w})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	tFit := h.end()
	k := min(max(model.KForTVE(o.TVE), 1), M)
	if k != info.Components {
		return fmt.Errorf("replay invalid: it selects k=%d, the stream stores k=%d", k, info.Components)
	}
	var kept float64
	for _, v := range model.Eigenvalues[:k] {
		kept += v
	}

	h = at("pca.Model.Transform")
	scores := model.Transform(x, k)
	tProject := h.end()

	width := quant.Width1
	if o.IndexBytes == dpz.Index2Byte {
		width = quant.Width2
	}
	pa := o.P * stats.Range(data)
	qz, err := quant.New(pa, width)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	qz.Lit32 = true
	h = at("quant.Encode")
	encs := make([]*quant.Encoded, k)
	parallel.For(k, w, func(j int) {
		encs[j] = qz.Encode(scores.Col(j, make([]float64, N)), 1)
	})
	tEncode := h.end()
	root.end()
	outOfRange := 0
	secs := make([][]byte, k)
	for j, e := range encs {
		outOfRange += e.OutOfRange()
		secs[j] = e.Marshal()
	}
	if outOfRange != st.OutOfRange {
		return fmt.Errorf("replay invalid: %d escapes, the compression reported %d", outOfRange, st.OutOfRange)
	}

	root = r.tr.begin("replay.decompress", 0, 0)
	parent = root.id
	h = at("quant.Unmarshal+DecodeInto")
	yt := mat.NewDense(k, N)
	errs := make([]error, k)
	parallel.For(k, w, func(j int) {
		e, err := quant.Unmarshal(secs[j])
		if err == nil {
			err = e.DecodeInto(yt.Row(j))
		}
		errs[j] = err
	})
	y := mat.NewDense(N, k)
	mat.TransposeInto(y, yt)
	tDecode := h.end()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}

	proj := model.ProjectionMatrix(k)
	h = at("mat.GemmNTInto")
	recon := mat.NewDense(M, N)
	mat.GemmNTInto(recon, proj, y, w)
	for j := 0; j < M; j++ {
		row := recon.Row(j)
		for i := range row {
			if scales != nil {
				row[i] *= model.Scales[j]
			}
			row[i] += model.Means[j]
		}
	}
	tRecompose := h.end()

	h = at("transform.InverseRows")
	transform.InverseRows(recon.Data(), M, N, w)
	tIDCT := h.end()

	h = at("blockio.Recompose")
	out, err := blockio.Recompose(recon, len(data))
	tBlockRecompose := h.end()
	root.end()
	if err == nil {
		err = checkDecoded(out, dims, dims)
	}
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}

	fit := &layerNode{name: "pca.fit", d: tFit, kids: []*layerNode{
		{name: "mat.gram", d: tGram}, {name: "eigen.symeig", d: tEig}}}
	comp := &layerNode{name: compressCall + " (median)", d: secDur(compressS), kids: []*layerNode{
		{name: "blockio.decompose", d: tDecompose},
		{name: "transform.dct", d: tDCT},
		{name: "sampling.vif", d: tVIF},
		fit,
		{name: "pca.project", d: tProject},
		{name: "quant.encode", d: tEncode},
	}}
	dec := &layerNode{name: decompressCall + " (median)", d: secDur(decompressS), kids: []*layerNode{
		{name: "quant.decode", d: tDecode},
		{name: "mat.recompose", d: tRecompose},
		{name: "transform.idct", d: tIDCT},
		{name: "blockio.recompose", d: tBlockRecompose},
	}}
	printSelfTable("compress, replayed on the first input", comp)
	printSelfTable("full decode, replayed on the first input", dec)

	r.setLayer("archive.compress_s", compressS, "s")
	r.setLayer("archive.decompress_s", decompressS, "s")
	r.setLayer("blockio.decompose_s", tDecompose.Seconds(), "s")
	r.setLayer("transform.dct_s", tDCT.Seconds(), "s")
	r.setLayer("sampling.vif_s", tVIF.Seconds(), "s")
	r.setLayer("mat.gram_s", tGram.Seconds(), "s")
	r.setLayer("eigen.symeig_s", tEig.Seconds(), "s")
	r.setLayer("pca.fit_s", tFit.Seconds(), "s")
	r.setLayer("pca.fit_self_s", fit.self().Seconds(), "s")
	r.setLayer("pca.project_s", tProject.Seconds(), "s")
	r.setLayer("quant.encode_s", tEncode.Seconds(), "s")
	r.setLayer("core.compress_residual_s", comp.self().Seconds(), "s")
	r.setLayer("quant.decode_s", tDecode.Seconds(), "s")
	r.setLayer("mat.recompose_s", tRecompose.Seconds(), "s")
	r.setLayer("transform.idct_s", tIDCT.Seconds(), "s")
	r.setLayer("blockio.recompose_s", tBlockRecompose.Seconds(), "s")
	r.setLayer("core.decompress_residual_s", dec.self().Seconds(), "s")

	std := 0.0
	if standardize {
		std = 1
	}
	r.setLayer("pca.k", float64(k), "count")
	r.setLayer("pca.k_over_m", float64(k)/float64(M), "ratio")
	r.setLayer("pca.tve", kept/model.TotalVar, "ratio")
	r.setLayer("pca.standardized", std, "bool")
	r.setLayer("quant.out_of_range", float64(outOfRange), "count")
	r.setLayer("core.stream_bytes", float64(len(stream)), "bytes")
	fmt.Printf("replay valid: k=%d of M=%d matches the stream, %d escapes match the compression\n", k, M, outOfRange)

	// Kernel work, computed from M, N and k (8-byte values; bytes count
	// each array read or written once, so cache misses are not included).
	fm, fn, fk := float64(M), float64(N), float64(k)
	kernels := []struct {
		name, formula string
		flop, bytes   float64
		d             time.Duration
	}{
		{"mat.gram", "N*M*(M+1) (symmetric rank-N update, one triangle)", fn * fm * (fm + 1), 8 * (fn*fm + fm*fm), tGram},
		{"eigen.symeig", "9*M^3 (tridiagonal QL with accumulated eigenvectors)", 9 * fm * fm * fm, 8 * 2 * fm * fm, tEig},
		{"pca.project", "2*N*M*k", 2 * fn * fm * fk, 8 * (fn*fm + fm*fk + fn*fk), tProject},
		{"mat.recompose", "2*M*N*k", 2 * fm * fn * fk, 8 * (fm*fk + fn*fk + fm*fn), tRecompose},
	}
	fmt.Printf("kernel work (computed, M=%d N=%d k=%d):\n", M, N, k)
	for _, kn := range kernels {
		rate := kn.flop / 1e9 / kn.d.Seconds()
		fmt.Printf("  %-14s %-52s %9.3f GFLOP %9.2f MB moved %8.3f GFLOP/s %6.2f flop/byte\n",
			kn.name, kn.formula, kn.flop/1e9, kn.bytes/1e6, rate, kn.flop/kn.bytes)
		r.setLayer(kn.name+"_gflop", kn.flop/1e9, "GFLOP")
		r.setLayer(kn.name+"_gflops", rate, "GFLOP/s")
	}
	return nil
}

func secDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// previewRanks are the preview depths the benchmark asks for; 0 is every
// stored component.
var previewRanks = []int{1, 4, 16, 0}

// replayReads times the library calls behind the read endpoints:
// DecompressRanks at every preview depth on the streams, and reading the
// index plus a range and a similarity query on the query bodies (tiled
// archives or plain streams, whichever the workload sends /v1/query).
func replayReads(r *run, streams, queryBodies [][]byte) {
	var previews, queries []float64
	for i, s := range streams {
		for _, rk := range previewRanks {
			h := r.tr.begin("dpz.DecompressRanks", 0, i)
			_, _, _, err := dpz.DecompressRanks(s, rk)
			d := h.end()
			if r.op(err) {
				previews = append(previews, d.Seconds())
			}
		}
	}
	for i, b := range queryBodies {
		h := r.tr.begin("retrieval.query", 0, i)
		ix, err := readIndex(b)
		if err == nil {
			_, err = ix.Range(dpz.Predicate{Field: "max", Op: ">", Value: 0})
		}
		if err == nil {
			_, err = ix.SimilarTo(0, 3)
		}
		d := h.end()
		if r.op(err) {
			queries = append(queries, d.Seconds())
		}
	}
	r.setLayer("core.preview_s", median(previews), "s")
	r.setLayer("retrieval.query_s", median(queries), "s")
}

// readIndex reads the retrieval index of a tiled archive or a plain
// stream, as dpzd does for /v1/query.
func readIndex(body []byte) (*dpz.Index, error) {
	if !bytes.HasPrefix(body, []byte("DPZA")) {
		return dpz.ReadIndex(body)
	}
	tr, err := dpz.OpenTiled(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return nil, err
	}
	return tr.Index()
}

// setBypassedServeLayers reports the serving layers as idle for a
// workload that does not touch them.
func setBypassedServeLayers(r *run) {
	for _, name := range []string{"client.preview_s", "client.query_s", "client.stat_s", "client.compress_s"} {
		r.setLayer(name, 0, "s")
	}
	for _, name := range []string{"server.preview_p50_ms", "server.query_p50_ms", "server.compress_p50_ms", "loadgen.lag_p99_ms"} {
		r.setLayer(name, 0, "ms")
	}
	r.setLayer("server.cache_hit_ratio", 0, "ratio")
	for _, name := range []string{"server.shed", "server.canceled", "server.admitted_max"} {
		r.setLayer(name, 0, "count")
	}
}

type memSample struct {
	alloc   uint64
	pauseNs uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// setMemLayers reports heap allocation and GC pause time between two
// runtime.ReadMemStats samples taken around the measurement window.
func setMemLayers(r *run, a, b memSample) {
	r.setLayer("go.alloc_mb", float64(b.alloc-a.alloc)/1e6, "MB")
	r.setLayer("go.gc_pause_s", float64(b.pauseNs-a.pauseNs)/1e9, "s")
}
