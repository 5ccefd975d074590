package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpz"
	"dpz/client"
	"dpz/internal/dataset"
	"dpz/internal/parallel"
	"dpz/internal/server"
)

const (
	// serveRate is the offered load: about half the rate at which this
	// mix saturated the seed commit on a 2-CPU host (see WORKLOADS.md).
	serveRate = 160.0
	// latencyLimit is the goodput latency limit, timed from each
	// request's due time.
	latencyLimit = 250 * time.Millisecond
	// warmupWindow is the warm-up inside set-up, at the serve rate.
	warmupWindow = 2 * time.Second
	// requestTimeout bounds every request so a stalled server cannot
	// hold the run past its deadline.
	requestTimeout = 20 * time.Second

	catalogSize      = 24
	catRows, catCols = 256, 512
	// catTileRows splits each catalog field into 16 slabs for the tiled
	// archive that /v1/query is sent, so range and similarity queries
	// rank 16 tile summaries rather than a plain stream's one.
	catTileRows        = 16
	uploadCount        = 16
	upRows, upCols     = 128, 256
	rangeQueryVariants = 12

	// The catalog and the uploads are fixed fields: which stream is hot
	// and how costly it is to decode must not change from seed to seed.
	catalogSeed = 3000
	uploadSeed  = 4000
)

// The mix: every writeEvery-th request is a write (20%), and the reads
// split between the read endpoints in these shares, with keys drawn
// Zipf-distributed with exponent zipfS.
//
// The read shares and zipfS are assumptions, not measurements: there is
// no dpzd request log to derive them from. Previews lead because the
// progressive decode is what dpzd adds over a plain decompress, queries
// follow as the index-only path, and stat, a metadata check, is rarest.
// zipfS is the smallest round exponent math/rand's Zipf accepts (it needs
// s > 1); web proxy traces fit exponents of 0.64 to 0.83 (Breslau et al.,
// "Web Caching and Zipf-like Distributions", INFOCOM 1999), so real
// traffic may have a flatter head and a lower cache hit ratio.
const (
	writeEvery   = 5
	previewShare = 0.50
	queryShare   = 0.35 // the rest of the reads are stat
	zipfS        = 1.1
)

// topKVariants are the k of the similarity queries; the seed tile of each
// is drawn per stream.
var topKVariants = []int{3, 8}

type opKind int

const (
	opPreview opKind = iota
	opQuery
	opStat
	opCompress
)

var opNames = [...]string{"preview", "query", "stat", "compress"}

// catalogEntry is one pre-compressed stream with the library's answers to
// every request the mix may send about it.
type catalogEntry struct {
	stream  []byte
	archive []byte                    // tiled archive of the same field, sent to /v1/query
	preview map[int][sha256.Size]byte // ranks → hash of the float32 response body
	queries []queryRef
	stat    dpz.StreamInfo
}

type queryRef struct {
	opts client.QueryOptions
	want client.QueryResult
}

type upload struct {
	raw  []byte // little-endian float32 body
	dims []int
	want [sha256.Size]byte // hash of the library's stream for the same upload

	streamBytes int
}

// serveState is one built set-up: catalog, uploads, references and a
// running server with its client.
type serveState struct {
	catalog []catalogEntry
	uploads []upload
	rawIn   int     // raw float32 bytes of catalog and uploads
	streams int     // stream bytes of catalog and uploads
	psnr    float64 // mean full-decode PSNR over the catalog
	srcs    [][]float64

	srv  *server.Server
	hs   *http.Server
	tr   *http.Transport
	cl   *client.Client
	done chan struct{} // closed when the http.Server has stopped serving
}

// plannedOp is one scheduled request.
type plannedOp struct {
	due  time.Duration
	kind opKind
	key  int // variant·catalogSize + stream, or upload index
}

// outcome is one request's result, with times since the schedule began:
// when it was sent, when it got one of the nproc connections and when
// its response was read.
type outcome struct {
	sent, conn, done time.Duration
	miss             bool // a preview the server decoded (X-Dpz-Cache: miss)
	err              error
}

// runServe is the open-loop retrieval-serving workload.
func runServe(r *run) error {
	st, setupS, err := repeatSetup(3, func() (*serveState, error) { return buildServe(r) }, (*serveState).close)
	if err != nil {
		return err
	}
	defer st.close()
	r.setE2E("setup_s", setupS, "s")
	fmt.Printf("serve: %d-stream catalog of %dx%d (queries on %d-tile archives), %d uploads of %dx%d, rate %.1f req/s over %d connections, limit %v\n",
		catalogSize, catRows, catCols, catRows/catTileRows, uploadCount, upRows, upCols, serveRate, r.workers, latencyLimit)

	reg := st.srv.Metrics()
	hits0 := reg.Counter("dpzd_cache_hits_total", "").Value()
	misses0 := reg.Counter("dpzd_cache_misses_total", "").Value()
	shed0 := reg.Counter("dpzd_shed_total", "").Value()
	canceled0 := reg.Counter("dpzd_canceled_total", "").Value()
	admitted := reg.Gauge("dpzd_admitted", "")

	ops := st.plan(rand.New(rand.NewSource(r.seed)), serveRate, r.window)
	// The discarded set-ups are garbage by now; collecting them here keeps
	// that collection out of the window.
	runtime.GC()
	mem0 := readMem()
	stop := make(chan struct{})
	maxAdmitted := make(chan int64)
	go func() {
		var m int64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				maxAdmitted <- m
				return
			case <-tick.C:
				m = max(m, admitted.Value())
			}
		}
	}()
	start := time.Now()
	res, lag := st.drive(r, ops)
	elapsed := time.Since(start)
	close(stop)
	admittedMax := <-maxAdmitted
	mem1 := readMem()

	var (
		readLat, writeLat []float64
		svc               [4][]float64 // connection-to-done seconds per kind
		good, decoded     int
	)
	for i, o := range res {
		if !r.op(o.err) {
			continue
		}
		lat := (o.done - ops[i].due).Seconds()
		if lat <= latencyLimit.Seconds() {
			good++
		}
		k := ops[i].kind
		if k == opCompress {
			writeLat = append(writeLat, lat)
		} else {
			readLat = append(readLat, lat)
		}
		svc[k] = append(svc[k], (o.done - o.conn).Seconds())
		if o.miss {
			decoded++
		}
	}
	if len(readLat) == 0 || len(writeLat) == 0 {
		return errors.New("no read or no write succeeded")
	}
	setLatency(r, "read", readLat, r.layer, tailGrid)
	setLatency(r, "write", writeLat, r.e2e, tailGrid)
	// Per second of the measured window: first send to last response.
	r.setE2E("goodput_rps", float64(good)/elapsed.Seconds(), "req/s")
	// Every upload and every preview body has the same size, so the
	// throughputs divide it by the median request time from connection to
	// response; the wait for a connection shows in the latencies. Most
	// previews are response-cache hits, so decompress_mbps follows the
	// cache more than the decoder, whose speed snapshots-* gate.
	r.setE2E("compress_mbps", 4*upRows*upCols/median(svc[opCompress])/1e6, "MB/s")
	r.setE2E("decompress_mbps", 4*catRows*catCols/median(svc[opPreview])/1e6, "MB/s")
	r.setE2E("cr", float64(st.rawIn)/float64(st.streams), "x")
	r.setE2E("psnr_db", st.psnr, "dB")
	fmt.Printf("window: %.3f s, %d requests (%d reads, %d writes, %d of %d previews decoded), %d within %v\n",
		elapsed.Seconds(), len(ops), len(readLat), len(writeLat), decoded, len(svc[opPreview]), good, latencyLimit)

	if r.tr == nil {
		return nil
	}
	for k, name := range opNames {
		r.setLayer("client."+name+"_s", median(svc[k]), "s")
	}
	for _, route := range []string{"preview", "query", "compress"} {
		h := reg.Histogram(fmt.Sprintf(`dpzd_request_seconds{route=%q}`, route), "", nil)
		r.setLayer("server."+route+"_p50_ms", 1000*h.Quantile(0.5), "ms")
	}
	hits := reg.Counter("dpzd_cache_hits_total", "").Value() - hits0
	misses := reg.Counter("dpzd_cache_misses_total", "").Value() - misses0
	r.setLayer("server.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	r.setLayer("server.shed", float64(reg.Counter("dpzd_shed_total", "").Value()-shed0), "count")
	r.setLayer("server.canceled", float64(reg.Counter("dpzd_canceled_total", "").Value()-canceled0), "count")
	r.setLayer("server.admitted_max", float64(admittedMax), "count")
	lagP99 := 0.0
	if len(lag) > 0 {
		lagP99 = percentile(sortedCopy(lag), 99)
	}
	r.setLayer("loadgen.lag_p99_ms", 1000*lagP99, "ms")
	setMemLayers(r, mem0, mem1)

	// The compress and decode layers are replayed on catalog stream 0,
	// against the median of a few timed public calls on the same input.
	opts := dpz.DefaultOptions()
	opts.Workers = r.workers
	var cTimes, dTimes []float64
	var last *dpz.Result
	for i := 0; i < 3; i++ {
		h := r.tr.begin("dpz.CompressFloat64", 0, 0)
		res, err := dpz.CompressFloat64(st.srcs[0], []int{catRows, catCols}, opts)
		cTimes = append(cTimes, h.end().Seconds())
		if err != nil {
			return err
		}
		h = r.tr.begin("dpz.DecompressFloat64", 0, 0)
		_, _, err = dpz.DecompressFloat64(res.Data)
		dTimes = append(dTimes, h.end().Seconds())
		if err != nil {
			return err
		}
		last = res
	}
	if err := replayCompressDecode(r, st.srcs[0], []int{catRows, catCols}, opts, last.Data, last.Stats,
		"dpz.CompressFloat64", "dpz.DecompressFloat64", median(cTimes), median(dTimes)); err != nil {
		return err
	}
	streams := make([][]byte, len(st.catalog))
	archives := make([][]byte, len(st.catalog))
	for i, c := range st.catalog {
		streams[i], archives[i] = c.stream, c.archive
	}
	replayReads(r, streams, archives)
	return nil
}

// buildServe generates the catalog and the uploads, computes the library
// reference for every request the mix can send, boots the server and
// warms it up at the serve rate.
func buildServe(r *run) (*serveState, error) {
	st := &serveState{
		catalog: make([]catalogEntry, catalogSize),
		srcs:    make([][]float64, catalogSize),
		uploads: make([]upload, uploadCount),
	}
	// Streams are built one per worker: they are small, and their bytes
	// do not depend on the worker count.
	psnrs := make([]float64, catalogSize)
	errs := make([]error, catalogSize+uploadCount)
	t0 := time.Now()
	parallel.For(catalogSize, r.workers, func(i int) {
		fseed := catalogSeed + int64(i)
		f := dataset.CESM(fieldName(i), catRows, catCols, fseed)
		o := dpz.DefaultOptions()
		o.Workers = 1
		res, err := dpz.CompressFloat64(f.Data, f.Dims, o)
		var arc bytes.Buffer
		if err == nil {
			_, err = dpz.CompressTiled(bytes.NewReader(float64To32Bytes(f.Data)), f.Dims, catTileRows, o, &arc)
		}
		if err == nil {
			st.catalog[i], psnrs[i], err = catalogRefs(res.Data, arc.Bytes(), f.Data, rand.New(rand.NewSource(r.seed*1000+int64(i))))
		}
		st.srcs[i], errs[i] = f.Data, err
	})
	tCatalog := time.Since(t0)
	upOpts, err := dpz.OptionSpec{Scheme: "loose", Workers: 1}.Options()
	if err != nil {
		return nil, err
	}
	parallel.For(uploadCount, r.workers, func(i int) {
		// Uploads are all low-rank fields, so upload times form one
		// population, and uploads hold a connection for about half as long
		// as flat ones would, which keeps read tails from amplifying host
		// noise. The flat compress path is the snapshots-flat workload's.
		f := dataset.CESM("PHIS", upRows, upCols, uploadSeed+int64(i))
		vals := make([]float32, len(f.Data))
		raw := make([]byte, 4*len(vals))
		for j, v := range f.Data {
			vals[j] = float32(v)
			binary.LittleEndian.PutUint32(raw[4*j:], math.Float32bits(vals[j]))
		}
		res, err := dpz.Compress(vals, f.Dims, upOpts)
		if err == nil {
			st.uploads[i] = upload{raw: raw, dims: f.Dims, want: sha256.Sum256(res.Data), streamBytes: len(res.Data)}
		}
		errs[catalogSize+i] = err
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// A range reference that matches no tile or every tile cannot tell a
	// right answer from a wrong one, so the run prints how many do better.
	subsets, ranges := 0, 0
	for _, c := range st.catalog {
		for _, q := range c.queries {
			if len(q.opts.Predicates) > 0 {
				ranges++
				if n := len(q.want.Matches); n > 0 && n < q.want.Tiles {
					subsets++
				}
			}
		}
	}
	fmt.Printf("set-up: %d of %d range references match a proper subset of the tiles\n", subsets, ranges)
	for i, c := range st.catalog {
		st.psnr += psnrs[i] / catalogSize
		st.rawIn += 4 * len(st.srcs[i])
		st.streams += len(c.stream)
	}
	for _, u := range st.uploads {
		st.rawIn += len(u.raw)
		st.streams += u.streamBytes
	}

	tUploads := time.Since(t0) - tCatalog
	if err := st.boot(r.workers); err != nil {
		return nil, err
	}
	warm := st.plan(rand.New(rand.NewSource(r.seed+1)), serveRate, warmupWindow)
	res, _ := st.drive(r, warm)
	for _, o := range res {
		r.op(o.err)
	}
	fmt.Printf("set-up: catalog %.3f s, uploads %.3f s, boot and warm-up %.3f s\n",
		tCatalog.Seconds(), tUploads.Seconds(), (time.Since(t0) - tCatalog - tUploads).Seconds())
	return st, nil
}

// fieldName alternates the flat and the low-rank field.
func fieldName(i int) string {
	if i%2 == 1 {
		return "PHIS"
	}
	return "CLDHGH"
}

// catalogRefs computes the library's answer to every request about one
// field: previews and stat of its stream, queries of its tiled archive.
// It also returns the stream's full-decode PSNR against its source.
func catalogRefs(stream, archive []byte, src []float64, rng *rand.Rand) (catalogEntry, float64, error) {
	e := catalogEntry{stream: stream, archive: archive, preview: map[int][sha256.Size]byte{}}
	var p float64
	for _, rk := range previewRanks {
		vals, _, _, err := dpz.DecompressRanks(stream, rk)
		if err != nil {
			return e, 0, err
		}
		e.preview[rk] = sha256.Sum256(float32Bytes(vals))
		if rk == 0 {
			lo, hi := math.Inf(1), math.Inf(-1)
			var sse float64
			for i, v := range src {
				lo, hi = min(lo, v), max(hi, v)
				d := v - float64(vals[i])
				sse += d * d
			}
			p = psnr(hi-lo, sse/float64(len(src)))
		}
	}
	ix, err := readIndex(archive)
	if err != nil {
		return e, 0, err
	}
	agg := ix.Aggregate()
	// A threshold is drawn between the lowest and the highest tile value
	// of its field, so most predicates split the tiles.
	fields := []string{"min", "max", "mean", "rms"}
	ops := []string{">", ">=", "<", "<="}
	for q := 0; q < rangeQueryVariants; q++ {
		f := fields[rng.Intn(len(fields))]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, t := range ix.Tiles {
			v := tileField(t, f)
			lo, hi = min(lo, v), max(hi, v)
		}
		pred := fmt.Sprintf("%s%s%.6g", f, ops[rng.Intn(len(ops))], lo+(hi-lo)*rng.Float64())
		p, err := dpz.ParsePredicate(pred)
		if err != nil {
			return e, 0, err
		}
		m, err := ix.Range(p)
		if err != nil {
			return e, 0, err
		}
		ref := queryRef{opts: client.QueryOptions{Predicates: []string{pred}},
			want: client.QueryResult{Tiles: len(ix.Tiles), Aggregate: agg, Query: pred, Matches: m}}
		e.queries = append(e.queries, ref)
	}
	for _, k := range topKVariants {
		seed := rng.Intn(len(ix.Tiles))
		m, err := ix.SimilarTo(seed, k)
		if err != nil {
			return e, 0, err
		}
		if len(m) != k {
			return e, 0, fmt.Errorf("similarity reference ranks %d tiles, want %d", len(m), k)
		}
		e.queries = append(e.queries, queryRef{opts: client.QueryOptions{TopK: k, SimilarTo: seed},
			want: client.QueryResult{Tiles: len(ix.Tiles), Aggregate: agg, Query: fmt.Sprintf("similar-to=%d k=%d", seed, k), Matches: m}})
	}
	// The references go through JSON as the responses do, so an empty
	// match list compares equal to an omitted one.
	for i := range e.queries {
		if err := jsonRoundTrip(&e.queries[i].want); err != nil {
			return e, 0, err
		}
	}
	info, err := dpz.Stat(stream)
	if err != nil {
		return e, 0, err
	}
	e.stat = *info
	if err := jsonRoundTrip(&e.stat); err != nil {
		return e, 0, err
	}
	return e, p, nil
}

// tileField returns a tile summary's value of a range-predicate field.
func tileField(t dpz.TileSummary, field string) float64 {
	switch field {
	case "min":
		return t.Min
	case "max":
		return t.Max
	case "mean":
		return t.Mean
	}
	return t.RMS
}

func jsonRoundTrip[T any](v *T) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		return err
	}
	*v = out
	return nil
}

// float32Bytes encodes values the way dpzd writes a preview body.
func float32Bytes(vals []float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// float64To32Bytes encodes values as the raw float32 body CompressTiled
// reads.
func float64To32Bytes(vals []float64) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(v)))
	}
	return b
}

// boot starts an in-process dpzd on a loopback port and a client limited
// to conns connections, with retries and hedging off.
func (st *serveState) boot(conns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = server.New(server.Config{})
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.done = make(chan struct{})
	go func() {
		defer close(st.done)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	st.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	st.cl = &client.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: st.tr},
		Retry:      client.RetryPolicy{MaxAttempts: 1},
	}
	return nil
}

// close stops the http.Server and drains the dpzd scheduler, waiting for
// both.
func (st *serveState) close() {
	if st == nil || st.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // a timeout here still leaves Drain to wait
	<-st.done
	_ = st.srv.Drain(ctx)
	st.tr.CloseIdleConnections()
	st.hs = nil
}

// plan draws an open-loop schedule for window at rate: a Poisson process
// conditioned on its count (round(rate·window) arrivals, uniform in the
// window), with exact shares per endpoint and keys drawn
// Zipf-distributed over each endpoint's keys. Key i is stream i mod 24
// with request variant i div 24, so every popularity rank spans both
// spectral regimes and the hot set is the same for every seed.
func (st *serveState) plan(rng *rand.Rand, rate float64, window time.Duration) []plannedOp {
	n := int(math.Round(rate * window.Seconds()))
	phase := rng.Intn(writeEvery)
	writes := (n - phase + writeEvery - 1) / writeEvery
	previews := int(math.Round(previewShare * float64(n-writes)))
	queries := int(math.Round(queryShare * float64(n-writes)))
	counts := [3]int{opPreview: previews, opQuery: queries, opStat: n - writes - previews - queries}
	reads := make([]opKind, 0, n-writes)
	for kind, c := range counts {
		for i := 0; i < c; i++ {
			reads = append(reads, opKind(kind))
		}
	}
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	// Uploads arrive in every writeEvery-th slot, like the writers of a
	// steady ingest, so write bursts do not depend on the seed.
	kinds := make([]opKind, n)
	for i := range kinds {
		if i%writeEvery == phase {
			kinds[i] = opCompress
		} else {
			kinds[i], reads = reads[0], reads[1:]
		}
	}

	keySpace := [4]int{
		opPreview:  catalogSize * len(previewRanks),
		opQuery:    catalogSize * (rangeQueryVariants + len(topKVariants)),
		opStat:     catalogSize,
		opCompress: uploadCount,
	}
	var zipf [3]*rand.Zipf
	for k := opPreview; k <= opStat; k++ {
		zipf[k] = rand.NewZipf(rng, zipfS, 1, uint64(keySpace[k]-1))
	}
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(due)
	ops := make([]plannedOp, n)
	for i, kind := range kinds {
		ops[i] = plannedOp{due: secDur(due[i]), kind: kind}
		if kind == opCompress {
			ops[i].key = rng.Intn(uploadCount)
		} else {
			ops[i].key = int(zipf[kind].Uint64())
		}
	}
	return ops
}

// drive sends every planned request at its due time, each from its own
// goroutine so a slow response never delays later sends, and waits for
// all of them. It returns each request's outcome and how late each was
// sent, in seconds.
func (st *serveState) drive(r *run, ops []plannedOp) ([]outcome, []float64) {
	out := make([]outcome, len(ops))
	lag := make([]float64, len(ops))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range ops {
		if d := time.Until(t0.Add(ops[i].due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent := time.Since(t0)
			lag[i] = (sent - ops[i].due).Seconds()
			h := r.tr.begin("client."+opNames[ops[i].kind], 0, i+1)
			var conn atomic.Int64
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
				GotConn: func(httptrace.GotConnInfo) { conn.Store(int64(time.Since(t0))) },
			})
			check, miss, err := st.do(ctx, ops[i])
			done := time.Since(t0)
			cancel()
			if err == nil {
				err = check()
			}
			if err != nil {
				h.fail()
			} else {
				h.end()
			}
			out[i] = outcome{sent: sent, conn: time.Duration(conn.Load()), done: done, miss: miss, err: err}
		}(i)
	}
	wg.Wait()
	return out, lag
}

// do sends one request. It returns a check of the response against the
// library's reference, run after the request is timed so checking adds no
// latency, and whether it was a preview the server decoded.
func (st *serveState) do(ctx context.Context, op plannedOp) (func() error, bool, error) {
	switch op.kind {
	case opPreview:
		c := st.catalog[op.key%catalogSize]
		rk := previewRanks[op.key/catalogSize]
		res, err := st.cl.Preview(ctx, c.stream, rk, 0)
		if err != nil {
			return nil, false, err
		}
		return func() error {
			if sha256.Sum256(res.Data) != c.preview[rk] {
				return fmt.Errorf("preview of stream %d at ranks %d differs from DecompressRanks", op.key%catalogSize, rk)
			}
			return nil
		}, res.Cache == "miss", nil
	case opQuery:
		c := st.catalog[op.key%catalogSize]
		ref := c.queries[op.key/catalogSize]
		res, err := st.cl.Query(ctx, c.archive, ref.opts)
		if err != nil {
			return nil, false, err
		}
		return func() error {
			if !reflect.DeepEqual(*res, ref.want) {
				return fmt.Errorf("query %q on archive %d: got %+v, want %+v", ref.want.Query, op.key%catalogSize, *res, ref.want)
			}
			return nil
		}, false, nil
	case opStat:
		c := st.catalog[op.key]
		info, err := st.cl.Stat(ctx, c.stream)
		if err != nil {
			return nil, false, err
		}
		return func() error {
			if !reflect.DeepEqual(*info, c.stat) {
				return fmt.Errorf("stat of stream %d differs from dpz.Stat", op.key)
			}
			return nil
		}, false, nil
	default:
		u := st.uploads[op.key]
		res, err := st.cl.Compress(ctx, u.raw, u.dims, client.CompressOptions{Scheme: "loose"})
		if err != nil {
			return nil, false, err
		}
		return func() error {
			if sha256.Sum256(res.Data) != u.want {
				return fmt.Errorf("compress of upload %d differs from dpz.Compress", op.key)
			}
			return nil
		}, false, nil
	}
}
