// Package server implements the dpzd HTTP daemon: streaming compression
// and decompression endpoints backed by a bounded job scheduler, plus
// metadata inspection, health, Prometheus metrics and pprof. Everything is
// stdlib net/http; the heavy lifting is the dpz package itself.
//
// Endpoints:
//
//	POST /v1/compress    raw little-endian float32 body → .dpz stream
//	POST /v1/decompress  .dpz stream or tiled archive body → raw float32
//	GET  /v1/preview     .dpz stream body + ?ranks=r → raw float32 from the
//	                     leading r components only (progressive preview)
//	GET  /v1/query       .dpz stream or tiled archive body → JSON answers
//	                     from the retrieval index (range predicates, top-k
//	                     similarity, aggregate stats); 422 without an index
//	GET  /v1/stat        .dpz stream body → stream metadata as JSON
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/pprof/   net/http/pprof
//
// Compression options travel as query parameters (dims, scheme, select,
// tve, fit, sampling, workers, zlevel, tile) or equivalently as
// X-Dpz-<Name> headers; query wins when both are set. Options resolve
// through dpz.OptionSpec — the same path the CLI uses — so a dpzd response
// body is byte-identical to `dpz -z` output for the same knobs.
//
// Load shedding: each request must win an admission slot before its body
// is read. Capacity is Jobs (concurrently executing) + QueueDepth
// (admitted and waiting); beyond that the server answers 429 with a
// Retry-After hint instead of buffering without bound. The hint is
// load-proportional — observed per-job service time times the queue
// ahead, divided across the pool, clamped to [1s, 60s] — so clients back
// off in step with actual congestion. Cancelled or timed-out requests
// stop compressing at the next pipeline checkpoint.
//
// Response caching: /v1/preview, /v1/query and /v1/stat are read-only and
// deterministic, so their responses are cached in a bounded LRU keyed by
// the stream's content hash plus the canonical request parameters. Hits
// are served from the handler goroutine without touching the job
// scheduler, concurrent identical misses collapse onto one compute
// (singleflight), every response carries a strong ETag (If-None-Match
// answers 304 with no decode at all), and the X-Dpz-Cache header reports
// hit, miss or bypass. See SERVER.md for keying and bound details.
//
// Fault isolation: a panic anywhere in a request — handler or worker
// pool — is recovered, answered with a 500, and counted in
// dpzd_panics_total; one poisoned request never takes down the daemon.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dpz"
	"dpz/internal/metrics"
)

// Config sizes the daemon. The zero value is usable: one job per CPU, a
// 16-deep queue, 1 GiB body cap, 5 minute request deadline.
type Config struct {
	// Jobs is the number of requests executing concurrently (the worker
	// pool size). 0 means GOMAXPROCS.
	Jobs int
	// Workers is the total goroutine budget the executing jobs share for
	// their internal tile/section parallelism. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth is how many admitted requests may wait beyond the
	// executing Jobs. 0 means the default of 16; negative means no queue
	// (admission capacity is exactly Jobs).
	QueueDepth int
	// MaxBodyBytes caps the request body. 0 means 1 GiB.
	MaxBodyBytes int64
	// RequestTimeout bounds each request's compute time. 0 means 5
	// minutes; negative means no deadline.
	RequestTimeout time.Duration
	// BasisCacheEntries bounds the daemon's shared PCA basis cache, used
	// by requests that enable the basis-reuse knob. 0 means the library
	// default of 64 entries; negative disables the shared cache (such
	// requests then fall back to per-request reuse for tiled bodies).
	BasisCacheEntries int
	// CacheEntries bounds the response cache shared by /v1/preview,
	// /v1/query and /v1/stat. 0 means the default of 256 entries;
	// negative disables response caching (every request computes).
	CacheEntries int
	// CacheBytes bounds the response cache's total body bytes. 0 means
	// the default of 256 MiB.
	CacheBytes int64
}

func (c Config) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	switch {
	case c.QueueDepth > 0:
		return c.QueueDepth
	case c.QueueDepth < 0:
		return 0
	}
	return 16
}

func (c Config) maxBody() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 1 << 30
}

func (c Config) timeout() time.Duration {
	switch {
	case c.RequestTimeout > 0:
		return c.RequestTimeout
	case c.RequestTimeout < 0:
		return 0
	}
	return 5 * time.Minute
}

// Server is the dpzd request handler plus its scheduler and metrics. Use
// New, mount Handler() on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg   Config
	sched *scheduler
	reg   *metrics.Registry
	mux   *http.ServeMux

	// innerWorkers is the per-job default goroutine budget when a request
	// does not pin its own workers knob: the total budget split across the
	// executing jobs.
	innerWorkers int

	inFlight   *metrics.Gauge
	queueDepth *metrics.Gauge
	shed       *metrics.Counter
	canceled   *metrics.Counter
	panics     *metrics.Counter

	// Preview instrumentation: the rank depth previews actually decode,
	// and how many requests ended up decoding every stored component
	// (no saving over a full decompress).
	previewRanks *metrics.Histogram
	previewFull  *metrics.Counter
	queryNoIndex *metrics.Counter

	// basisCache is the daemon-wide PCA basis cache shared by requests
	// that enable the basis-reuse knob; nil when disabled by config.
	// Cross-request reuse makes a response depend on cache history (the
	// quality guard still enforces the TVE target); within one tiled
	// request the output stays byte-identical for every worker count.
	basisCache *dpz.BasisCache
	// respCache is the bounded LRU response cache for the read-only decode
	// endpoints; nil when disabled by config. Hits are served straight from
	// the handler goroutine and never touch the job scheduler.
	respCache    *respCache
	basisAccept  *metrics.Counter
	basisCold    *metrics.Counter
	basisHits    *metrics.Gauge
	basisMisses  *metrics.Gauge
	basisEvicted *metrics.Gauge

	// testJobStart, when set, runs at the start of every scheduled job
	// (inside the worker, before the compression) with the job's context.
	// Tests use it to hold workers busy deterministically or to wait for
	// a cancellation to become visible. Never set in production.
	testJobStart func(route string, ctx context.Context)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	reg := metrics.NewRegistry()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs := cfg.jobs()
	s := &Server{
		cfg:          cfg,
		sched:        newScheduler(jobs, cfg.queueDepth()),
		reg:          reg,
		mux:          http.NewServeMux(),
		innerWorkers: max(1, workers/jobs),
		inFlight:     reg.Gauge("dpzd_requests_in_flight", "requests currently being handled"),
		queueDepth:   reg.Gauge("dpzd_admitted", "requests holding admission slots (executing or queued)"),
		shed:         reg.Counter("dpzd_shed_total", "requests rejected with 429 at admission"),
		canceled:     reg.Counter("dpzd_canceled_total", "requests cancelled or timed out before completing"),
		panics:       reg.Counter("dpzd_panics_total", "request handlers recovered from a panic"),
		previewRanks: reg.Histogram("dpzd_preview_ranks", "components decoded per preview request", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
		previewFull:  reg.Counter("dpzd_preview_full_total", "preview requests that decoded every stored component"),
		queryNoIndex: reg.Counter("dpzd_query_noindex_total", "query requests refused because the stream carries no retrieval index"),
		basisAccept:  reg.Counter("dpzd_basis_accept_total", "compressions that adopted a cached PCA basis after the quality guard"),
		basisCold:    reg.Counter("dpzd_basis_cold_total", "basis-reuse compressions that fitted cold (no usable candidate, or the guard rejected it)"),
		basisHits:    reg.Gauge("dpzd_basis_cache_hits", "basis cache lookups that found an entry"),
		basisMisses:  reg.Gauge("dpzd_basis_cache_misses", "basis cache lookups that missed"),
		basisEvicted: reg.Gauge("dpzd_basis_cache_evictions", "basis cache entries dropped by the LRU bound"),
	}
	if cfg.BasisCacheEntries >= 0 {
		s.basisCache = dpz.NewBasisCache(cfg.BasisCacheEntries)
	}
	if cfg.CacheEntries >= 0 {
		s.respCache = newRespCache(cfg.CacheEntries, cfg.CacheBytes, reg)
	}
	s.routes()
	return s
}

// Metrics exposes the server's registry (CLIs embedding the server, tests).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Drain stops admitting work, waits for every in-flight and queued request
// to finish, and stops the worker pool. New requests are shed with 429
// while the drain runs. Returns ctx.Err() if ctx expires first.
func (s *Server) Drain(ctx context.Context) error { return s.sched.drain(ctx) }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/compress", s.handleCompress)
	s.mux.HandleFunc("POST /v1/decompress", s.handleDecompress)
	s.mux.HandleFunc("GET /v1/preview", s.handlePreview)
	s.mux.HandleFunc("POST /v1/preview", s.handlePreview)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/stat", s.handleStat)
	s.mux.HandleFunc("POST /v1/stat", s.handleStat)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if s.basisCache != nil {
			cs := s.basisCache.Stats()
			s.basisHits.Set(int64(cs.Hits))
			s.basisMisses.Set(int64(cs.Misses))
			s.basisEvicted.Set(int64(cs.Evictions))
		}
		_ = s.reg.WritePrometheus(w)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the fully instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// routeLabel buckets request paths into a bounded label set.
func routeLabel(path string) string {
	switch {
	case path == "/v1/compress":
		return "compress"
	case path == "/v1/decompress":
		return "decompress"
	case path == "/v1/preview":
		return "preview"
	case path == "/v1/query":
		return "query"
	case path == "/v1/stat":
		return "stat"
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	}
	return "other"
}

// statusRecorder captures the response code for the requests_total label.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// instrument wraps next with the request-lifecycle metrics: per-route
// counters by status, in-flight gauge, latency and response-size
// histograms.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.URL.Path)
		start := time.Now()
		s.inFlight.Inc()
		rec := &statusRecorder{ResponseWriter: w}
		func() {
			// Per-request panic isolation: a handler panic becomes a 500 for
			// this request instead of killing the daemon. Panics on worker
			// goroutines are caught separately inside runJob.
			defer func() {
				if p := recover(); p != nil {
					s.panics.Inc()
					if rec.code == 0 {
						http.Error(rec, "internal error", http.StatusInternalServerError)
					}
				}
			}()
			next.ServeHTTP(rec, r)
		}()
		s.inFlight.Dec()
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		s.reg.Counter(
			fmt.Sprintf(`dpzd_requests_total{route=%q,code="%d"}`, route, rec.code),
			"requests by route and status code").Inc()
		s.reg.Histogram(fmt.Sprintf(`dpzd_request_seconds{route=%q}`, route),
			"request latency in seconds", metrics.LatencyBuckets).
			Observe(time.Since(start).Seconds())
		if route == "compress" || route == "decompress" || route == "preview" {
			s.reg.Histogram(fmt.Sprintf(`dpzd_response_bytes{route=%q}`, route),
				"response body size in bytes", metrics.SizeBuckets).
				Observe(float64(rec.bytes))
		}
	})
}

// reqParam reads an option knob from the query string, falling back to the
// X-Dpz-<Name> header.
func reqParam(r *http.Request, name string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return r.Header.Get("X-Dpz-" + name)
}

// reqInt parses an integer knob; empty means def.
func reqInt(r *http.Request, name string, def int) (int, error) {
	v := reqParam(r, name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

// reqOptions builds the compression Options for a request via the shared
// dpz.OptionSpec path, defaulting workers to this server's per-job budget.
func (s *Server) reqOptions(r *http.Request) (dpz.Options, error) {
	tve, err := reqInt(r, "tve", 0)
	if err != nil {
		return dpz.Options{}, err
	}
	workers, err := reqInt(r, "workers", s.innerWorkers)
	if err != nil {
		return dpz.Options{}, err
	}
	zlevel, err := reqInt(r, "zlevel", 0)
	if err != nil {
		return dpz.Options{}, err
	}
	sampling := false
	if v := reqParam(r, "sampling"); v != "" {
		sampling, err = strconv.ParseBool(v)
		if err != nil {
			return dpz.Options{}, fmt.Errorf("bad sampling %q", v)
		}
	}
	basisReuse := false
	if v := reqParam(r, "basis-reuse"); v != "" {
		basisReuse, err = strconv.ParseBool(v)
		if err != nil {
			return dpz.Options{}, fmt.Errorf("bad basis-reuse %q", v)
		}
	}
	spec := dpz.OptionSpec{
		Scheme:     reqParam(r, "scheme"),
		Select:     reqParam(r, "select"),
		TVENines:   tve,
		Fit:        reqParam(r, "fit"),
		Sampling:   sampling,
		Workers:    workers,
		ZLevel:     zlevel,
		BasisReuse: basisReuse,
	}
	o, err := spec.Options()
	if err != nil {
		return o, err
	}
	if o.BasisReuse {
		// Draw candidates from (and publish into) the daemon-wide cache,
		// so similar tiles reuse bases across whole requests.
		o.BasisCache = s.basisCache
	}
	return o, nil
}

// countBasisDecisions feeds the per-compression reuse decisions into the
// daemon's counters.
func (s *Server) countBasisDecisions(sts ...dpz.Stats) {
	for _, st := range sts {
		switch st.BasisDecision {
		case "accept":
			s.basisAccept.Inc()
		case "cold":
			s.basisCold.Inc()
		}
	}
}

// jobOutput is what a scheduled job hands back to its handler.
type jobOutput struct {
	body     []byte
	header   map[string]string
	err      error
	panicked bool // the job died in a recovered panic; answer 500, not 400
}

// retryAfterSeconds estimates how long a shed client should wait before
// retrying: the observed per-job service time times the number of
// admitted requests ahead of it, divided across the worker pool, clamped
// to [1s, 60s]. Before the first job completes (no estimate yet) it
// falls back to 1s.
func (s *Server) retryAfterSeconds() int {
	svc := s.sched.serviceTime()
	if svc <= 0 {
		return 1
	}
	wait := float64(svc) * float64(s.sched.queued()+1) / float64(s.sched.pool)
	secs := int(math.Ceil(time.Duration(wait).Seconds()))
	return min(max(secs, 1), 60)
}

// admitJob acquires an admission slot, answering 429 with a Retry-After
// hint when the server is saturated. On success the caller must invoke the
// returned release exactly once.
func (s *Server) admitJob(w http.ResponseWriter) (release func(), ok bool) {
	if err := s.sched.admit(); err != nil {
		s.shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "server saturated, retry later", http.StatusTooManyRequests)
		return nil, false
	}
	s.queueDepth.Set(int64(s.sched.queued()))
	return func() {
		s.sched.release()
		s.queueDepth.Set(int64(s.sched.queued()))
	}, true
}

// readBody drains the request body under the configured cap, mapping
// failures to HTTP errors and recording the per-route body-size histogram.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, route string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBody()))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	s.reg.Histogram(fmt.Sprintf(`dpzd_request_bytes{route=%q}`, route),
		"request body size in bytes", metrics.SizeBuckets).
		Observe(float64(len(body)))
	return body, true
}

// execJob runs fn on the worker pool under the request deadline and maps
// cancellation, panics and job errors to HTTP errors. The caller must
// already hold an admission slot.
func (s *Server) execJob(w http.ResponseWriter, r *http.Request, route string,
	body []byte, fn func(ctx context.Context, body []byte) jobOutput) (jobOutput, bool) {
	ctx := r.Context()
	if d := s.cfg.timeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	var out jobOutput
	j := &job{
		ctx:  ctx,
		done: make(chan struct{}),
		run: func(ctx context.Context) {
			// A panic in the compression pipeline must cost one request, not
			// the worker goroutine (an unrecovered panic there would kill the
			// whole daemon).
			defer func() {
				if p := recover(); p != nil {
					s.panics.Inc()
					out = jobOutput{panicked: true,
						err: fmt.Errorf("internal error: %v", p)}
				}
			}()
			if s.testJobStart != nil {
				s.testJobStart(route, ctx)
			}
			out = fn(ctx, body)
		},
	}
	s.sched.dispatch(j)
	// Wait for the worker even if ctx dies first: the pool will observe
	// the cancelled context and skip or abandon the job promptly, and
	// waiting keeps the admit/dispatch/release accounting exact.
	<-j.done

	if ctx.Err() != nil {
		s.canceled.Inc()
		http.Error(w, "request cancelled or timed out: "+ctx.Err().Error(),
			http.StatusServiceUnavailable)
		return jobOutput{}, false
	}
	if out.panicked {
		http.Error(w, out.err.Error(), http.StatusInternalServerError)
		return jobOutput{}, false
	}
	if out.err != nil {
		http.Error(w, out.err.Error(), http.StatusBadRequest)
		return jobOutput{}, false
	}
	return out, true
}

// writeResponse emits a successful jobOutput. cacheState, when non-empty,
// becomes the X-Dpz-Cache header; etag, when non-empty, the ETag. A
// Content-Type in out.header overrides the octet-stream default.
func writeResponse(w http.ResponseWriter, out jobOutput, cacheState, etag string) {
	hdr := w.Header()
	ct := "application/octet-stream"
	for k, v := range out.header {
		if k == "Content-Type" {
			ct = v
			continue
		}
		hdr.Set(k, v)
	}
	hdr.Set("Content-Type", ct)
	if etag != "" {
		hdr.Set("ETag", etag)
	}
	if cacheState != "" {
		hdr.Set("X-Dpz-Cache", cacheState)
	}
	hdr.Set("Content-Length", strconv.Itoa(len(out.body)))
	_, _ = w.Write(out.body)
}

// runJob admits the request, reads its body, executes fn on the worker
// pool under the request deadline, and writes the result. It is the
// request-lifecycle path of the compress and decompress handlers, which
// admit before reading the body so a saturated server sheds load without
// buffering uploads.
func (s *Server) runJob(w http.ResponseWriter, r *http.Request, route string,
	fn func(ctx context.Context, body []byte) jobOutput) {
	release, ok := s.admitJob(w)
	if !ok {
		return
	}
	defer release()
	body, ok := s.readBody(w, r, route)
	if !ok {
		return
	}
	out, ok := s.execJob(w, r, route, body, fn)
	if !ok {
		return
	}
	writeResponse(w, out, "", "")
}

// serveCached is the request path of the read-only decode endpoints. It
// consults the response cache (hits bypass the job scheduler entirely and
// answer matching If-None-Match validators with an empty 304), collapses
// concurrent identical misses onto one compute, and labels every response
// with X-Dpz-Cache: hit, miss or bypass.
//
// compute runs only on a miss; on failure it must have written its own
// HTTP error and returned ok=false — failed computes are never cached and
// never shared with collapsed followers.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request,
	endpoint, variant string, body []byte, compute func() (jobOutput, bool)) {
	c := s.respCache
	if c == nil {
		if out, ok := compute(); ok {
			writeResponse(w, out, "bypass", "")
		}
		return
	}
	key := c.keyFor(endpoint, variant, body)
	etag := c.etagFor(key)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		// The validator is the cache key: an identical key reproduces the
		// response the client already holds, byte for byte, so the 304
		// needs no decode — and not even a resident cache entry.
		c.recordHit()
		w.Header().Set("ETag", etag)
		w.Header().Set("X-Dpz-Cache", "hit")
		w.WriteHeader(http.StatusNotModified)
		return
	}
	for {
		ent, fl, leader := c.acquire(key)
		switch {
		case ent != nil:
			writeResponse(w, jobOutput{body: ent.body, header: ent.header}, "hit", etag)
			return
		case !leader:
			select {
			case <-fl.done:
			case <-r.Context().Done():
				s.canceled.Inc()
				http.Error(w, "request cancelled or timed out: "+r.Context().Err().Error(),
					http.StatusServiceUnavailable)
				return
			}
			if fl.ent != nil {
				c.recordHit()
				writeResponse(w, jobOutput{body: fl.ent.body, header: fl.ent.header}, "hit", etag)
				return
			}
			// The leader failed; its error is its own. Retry — this request
			// likely becomes the next leader.
		default:
			var (
				out jobOutput
				ok  bool
			)
			func() {
				// finish must run even if compute panics, or every follower
				// of this key would block forever.
				var ent *cacheEntry
				defer func() { c.finish(key, fl, ent) }()
				if out, ok = compute(); ok {
					ent = entryFor(key, out)
				}
			}()
			if ok {
				writeResponse(w, out, "miss", etag)
			}
			return
		}
	}
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	dimsStr := reqParam(r, "dims")
	if dimsStr == "" {
		http.Error(w, "missing dims (query ?dims=AxB or header X-Dpz-Dims)",
			http.StatusBadRequest)
		return
	}
	dims, err := dpz.ParseDims(dimsStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts, err := s.reqOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tileRows, err := reqInt(r, "tile", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.runJob(w, r, "compress", func(ctx context.Context, body []byte) jobOutput {
		values := 1
		for _, d := range dims {
			values *= d
		}
		if len(body) != 4*values {
			return jobOutput{err: fmt.Errorf("dims %v need %d body bytes, got %d",
				dims, 4*values, len(body))}
		}
		if tileRows > 0 {
			var buf bytes.Buffer
			tstats, err := dpz.CompressTiledContext(ctx, bytes.NewReader(body), dims, tileRows, opts, &buf)
			if err != nil {
				return jobOutput{err: err}
			}
			s.countBasisDecisions(tstats...)
			var orig, comp int
			for _, st := range tstats {
				orig += st.OrigBytes
				comp += st.CompressedBytes
			}
			return jobOutput{body: buf.Bytes(), header: map[string]string{
				"X-Dpz-Dims":  dimsStr,
				"X-Dpz-Tiles": strconv.Itoa(len(tstats)),
				"X-Dpz-Cr":    fmt.Sprintf("%.4f", float64(orig)/float64(max(comp, 1))),
			}}
		}
		field := make([]float32, values)
		for i := range field {
			field[i] = bytesToFloat32(body[4*i:])
		}
		res, err := dpz.CompressContext(ctx, field, dims, opts)
		if err != nil {
			return jobOutput{err: err}
		}
		st := res.Stats
		s.countBasisDecisions(st)
		hdr := map[string]string{
			"X-Dpz-Dims":   dimsStr,
			"X-Dpz-K":      strconv.Itoa(st.K),
			"X-Dpz-Blocks": fmt.Sprintf("%dx%d", st.Blocks, st.BlockLen),
			"X-Dpz-Cr":     fmt.Sprintf("%.4f", st.CRTotal),
			"X-Dpz-Tve":    fmt.Sprintf("%.8f", st.TVEAchieved),
		}
		if st.BasisDecision != "" {
			hdr["X-Dpz-Basis"] = st.BasisDecision
		}
		return jobOutput{body: res.Data, header: hdr}
	})
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	workers, err := reqInt(r, "workers", s.innerWorkers)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.runJob(w, r, "decompress", func(ctx context.Context, body []byte) jobOutput {
		var (
			data []float32
			dims []int
		)
		if bytes.HasPrefix(body, []byte("DPZA")) {
			// Tiled archive: decode every slab.
			tr, err := dpz.OpenTiled(bytes.NewReader(body), int64(len(body)))
			if err != nil {
				return jobOutput{err: err}
			}
			d64, tdims, err := tr.ReadAllParallel(workers)
			if err != nil {
				return jobOutput{err: err}
			}
			data, dims = float64To32(d64), tdims
		} else {
			data, dims, err = dpz.DecompressContext(ctx, body, workers)
			if err != nil {
				return jobOutput{err: err}
			}
		}
		out := make([]byte, 4*len(data))
		for i, v := range data {
			float32ToBytes(out[4*i:], v)
		}
		return jobOutput{body: out, header: map[string]string{
			"X-Dpz-Dims": dimsString(dims),
		}}
	})
}

// handlePreview serves a progressive decode: only the leading ?ranks=r
// component sections are inflated and reconstructed, so a shallow preview
// of a deep stream costs a fraction of a full decompress. The X-Dpz-Tve
// header reports the variance fraction the preview actually captured,
// read from the stream's retrieval index — no extra decode work.
//
// Responses are cached by (stream content hash, ranks): decode bits are
// worker-independent, so the workers knob does not key the cache. Unlike
// compress/decompress the body is read before admission — the cache key
// needs the bytes, and a hit must not consume a scheduler slot.
func (s *Server) handlePreview(w http.ResponseWriter, r *http.Request) {
	ranks, err := reqInt(r, "ranks", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	workers, err := reqInt(r, "workers", s.innerWorkers)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, ok := s.readBody(w, r, "preview")
	if !ok {
		return
	}
	s.serveCached(w, r, "preview", fmt.Sprintf("ranks=%d", ranks), body, func() (jobOutput, bool) {
		release, ok := s.admitJob(w)
		if !ok {
			return jobOutput{}, false
		}
		defer release()
		return s.execJob(w, r, "preview", body, func(ctx context.Context, body []byte) jobOutput {
			data, dims, used, err := dpz.DecompressRanksContext(ctx, body, ranks, workers)
			if err != nil {
				return jobOutput{err: err}
			}
			s.previewRanks.Observe(float64(used))
			hdr := map[string]string{
				"X-Dpz-Dims":       dimsString(dims),
				"X-Dpz-Ranks-Used": strconv.Itoa(used),
			}
			if info, err := dpz.Stat(body); err == nil {
				hdr["X-Dpz-K"] = strconv.Itoa(info.Components)
				if used >= info.Components {
					s.previewFull.Inc()
				}
				if used >= 1 && len(info.RankCumulativeEnergy) >= used {
					hdr["X-Dpz-Tve"] = fmt.Sprintf("%.8f", info.RankCumulativeEnergy[used-1])
				}
			}
			out := make([]byte, 4*len(data))
			for i, v := range data {
				float32ToBytes(out[4*i:], float32(v))
			}
			return jobOutput{body: out, header: hdr}
		})
	})
}

// queryResponse is the /v1/query JSON shape.
type queryResponse struct {
	Tiles     int                `json:"tiles"`
	Aggregate dpz.IndexAggregate `json:"aggregate"`
	Query     string             `json:"query,omitempty"`
	Matches   []dpz.Match        `json:"matches,omitempty"`
}

// handleQuery answers range, similarity and aggregate queries from the
// retrieval index of a stream or tiled archive. Like stat it inflates no
// data section, so it bypasses the job scheduler. Streams without a
// usable index get a 422: the query is well-formed but this stream cannot
// answer it — clients fall back to a full decompress.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Parameters parse (and fail) before the cache is consulted, so a
	// malformed query never occupies a key.
	predStrs := r.URL.Query()["pred"]
	if v := r.Header.Get("X-Dpz-Pred"); v != "" && len(predStrs) == 0 {
		predStrs = []string{v}
	}
	similarTo, err := reqInt(r, "similar-to", -1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k, err := reqInt(r, "k", 5)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(predStrs) > 0 && similarTo >= 0 {
		http.Error(w, "pred and similar-to are mutually exclusive", http.StatusBadRequest)
		return
	}
	preds := make([]dpz.Predicate, len(predStrs))
	for i, ps := range predStrs {
		if preds[i], err = dpz.ParsePredicate(ps); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	body, ok := s.readBody(w, r, "query")
	if !ok {
		return
	}
	// The textual predicates key the cache: textually distinct but
	// equivalent predicates compute twice, which costs duplication, never
	// correctness.
	variant := fmt.Sprintf("pred=%s|similar-to=%d|k=%d", strings.Join(predStrs, "&&"), similarTo, k)
	s.serveCached(w, r, "query", variant, body, func() (jobOutput, bool) {
		var ix *dpz.Index
		if bytes.HasPrefix(body, []byte("DPZA")) {
			tr, err := dpz.OpenTiled(bytes.NewReader(body), int64(len(body)))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return jobOutput{}, false
			}
			ix, err = tr.Index()
			if err != nil {
				s.queryIndexError(w, err)
				return jobOutput{}, false
			}
		} else {
			var err error
			ix, err = dpz.ReadIndex(body)
			if err != nil {
				s.queryIndexError(w, err)
				return jobOutput{}, false
			}
		}

		resp := queryResponse{Tiles: len(ix.Tiles), Aggregate: ix.Aggregate()}
		switch {
		case len(preds) > 0:
			matches, err := ix.Range(preds...)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return jobOutput{}, false
			}
			resp.Matches, resp.Query = matches, strings.Join(predStrs, " && ")
		case similarTo >= 0:
			matches, err := ix.SimilarTo(similarTo, k)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return jobOutput{}, false
			}
			resp.Matches, resp.Query = matches, fmt.Sprintf("similar-to=%d k=%d", similarTo, k)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return jobOutput{}, false
		}
		return jobOutput{body: buf.Bytes(), header: map[string]string{
			"Content-Type": "application/json",
		}}, true
	})
}

// queryIndexError maps an index-extraction failure to a status: a missing
// or damaged index is 422 (the stream is valid, it just cannot answer
// compressed-domain queries), anything else is a 400.
func (s *Server) queryIndexError(w http.ResponseWriter, err error) {
	if errors.Is(err, dpz.ErrNoIndex) {
		s.queryNoIndex.Inc()
		http.Error(w, "no retrieval index: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// handleStat inspects a stream's metadata. It is cheap (header and section
// table only, nothing is inflated) so it bypasses the job scheduler.
func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, "stat")
	if !ok {
		return
	}
	s.serveCached(w, r, "stat", "", body, func() (jobOutput, bool) {
		info, err := dpz.Stat(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return jobOutput{}, false
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(info); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return jobOutput{}, false
		}
		return jobOutput{body: buf.Bytes(), header: map[string]string{
			"Content-Type": "application/json",
		}}, true
	})
}

func dimsString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

func bytesToFloat32(b []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

func float32ToBytes(b []byte, v float32) {
	binary.LittleEndian.PutUint32(b, math.Float32bits(v))
}

func float64To32(in []float64) []float32 {
	out := make([]float32, len(in))
	for i, v := range in {
		out[i] = float32(v)
	}
	return out
}
