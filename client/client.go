// Package client is the typed Go client for the dpzd daemon. It wraps
// the /v1/compress, /v1/decompress, /v1/preview, /v1/query and /v1/stat
// endpoints with the resilience a flaky network demands:
//
//   - capped exponential backoff with seeded jitter on 429, 5xx and
//     transport errors, honoring the server's Retry-After hint (dpzd
//     computes it from queue depth and observed service time);
//   - context deadline propagation — the caller's ctx bounds the whole
//     call, retries and backoff sleeps included, and every attempt
//     carries it so a dead caller stops server work at the next pipeline
//     checkpoint;
//   - optional hedged requests: if HedgeDelay passes with no response,
//     a second identical request races the first and the loser is
//     cancelled. All three endpoints are pure functions of the request
//     body, so hedging is always safe.
//
// Retrying is safe for the same reason hedging is: dpzd requests have no
// server-side effects, so the "did my request go through?" ambiguity of
// a dropped connection costs duplicate work, never duplicate state.
//
// The Clock and the jitter seed are injectable, making the full retry
// and hedge schedule deterministic under test.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpz"
)

// Client talks to one dpzd base URL. The zero value is not usable; set
// BaseURL (e.g. "http://localhost:8080"). All other fields are optional.
// Safe for concurrent use.
type Client struct {
	// BaseURL is the daemon root, without a trailing slash.
	BaseURL string
	// HTTPClient performs the requests. nil means a plain &http.Client{};
	// set a custom Transport here to route through proxies or a fault
	// injector.
	HTTPClient *http.Client
	// Retry shapes the backoff schedule; the zero value retries 429/5xx/
	// transport errors up to 4 attempts with 100ms..5s equal-jitter
	// backoff.
	Retry RetryPolicy
	// HedgeDelay, when positive, arms request hedging: an attempt that
	// has produced no response after this long races a second identical
	// request. 0 disables hedging.
	HedgeDelay time.Duration
	// Clock supplies time for backoff and hedging. nil means wall time.
	Clock Clock
	// Validators, when positive, arms the client-side validator cache: the
	// last Validators responses that carried an ETag are remembered per
	// exact request, identical calls send If-None-Match, and a 304 answer
	// replays the remembered body — the server validates without decoding
	// anything. 0 disables conditional requests (no behavior change).
	Validators int

	rng         jitter
	attempts    atomic.Int64
	retries     atomic.Int64
	hedges      atomic.Int64
	notModified atomic.Int64

	vcOnce sync.Once
	vc     *vcache
}

// Stats are the client's lifetime resilience counters.
type Stats struct {
	// Attempts counts every HTTP request sent, hedges included.
	Attempts int64
	// Retries counts attempts beyond the first per call.
	Retries int64
	// Hedges counts hedge requests launched.
	Hedges int64
	// NotModified counts calls answered by a 304 and served from the
	// client's validator cache.
	NotModified int64
}

// Stats returns a snapshot of the resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:    c.attempts.Load(),
		Retries:     c.retries.Load(),
		Hedges:      c.hedges.Load(),
		NotModified: c.notModified.Load(),
	}
}

// validators returns the lazily built validator cache, nil when disabled.
func (c *Client) validators() *vcache {
	if c.Validators <= 0 {
		return nil
	}
	c.vcOnce.Do(func() { c.vc = newVcache(c.Validators) })
	return c.vc
}

func (c *Client) clock() Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return wallClock{}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{}
}

// APIError is a non-2xx response from dpzd.
type APIError struct {
	StatusCode int
	Message    string // response body, trimmed
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dpzd: %d %s: %s",
		e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// Temporary reports whether the error named a transient server state
// (shed load or 5xx) rather than a caller mistake.
func (e *APIError) Temporary() bool { return retryableStatus(e.StatusCode) }

// CompressOptions mirror the dpzd compression knobs; zero values are
// omitted and take the server's defaults.
type CompressOptions struct {
	Scheme     string // "pca" or "dct"
	Select     string // component-selection rule
	TVENines   int    // error target as a count of nines
	Fit        string // basis fit strategy
	Sampling   bool
	Workers    int
	ZLevel     int
	TileRows   int  // >0 compresses as a tiled archive
	BasisReuse bool // draw PCA bases from the daemon's shared cache
}

func (o CompressOptions) query(dims []int) url.Values {
	q := url.Values{"dims": {dimsString(dims)}}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	set("scheme", o.Scheme)
	set("select", o.Select)
	set("fit", o.Fit)
	if o.TVENines > 0 {
		q.Set("tve", strconv.Itoa(o.TVENines))
	}
	if o.Sampling {
		q.Set("sampling", "true")
	}
	if o.Workers > 0 {
		q.Set("workers", strconv.Itoa(o.Workers))
	}
	if o.ZLevel > 0 {
		q.Set("zlevel", strconv.Itoa(o.ZLevel))
	}
	if o.TileRows > 0 {
		q.Set("tile", strconv.Itoa(o.TileRows))
	}
	if o.BasisReuse {
		q.Set("basis-reuse", "true")
	}
	return q
}

// CompressResult is a compressed stream plus the stats dpzd reported in
// its X-Dpz-* response headers.
type CompressResult struct {
	// Data is the .dpz stream (or tiled archive when TileRows was set).
	Data []byte
	// Dims echoes the compressed field's dimensions.
	Dims []int
	// CR is the total compression ratio.
	CR float64
	// K is the number of retained components (whole-field mode only).
	K int
	// TVE is the achieved truncation-variance error (whole-field mode).
	TVE float64
	// Tiles is the tile count (tiled mode only).
	Tiles int
	// Basis is the basis-reuse decision ("accept" or "cold")
	// when the knob was on.
	Basis string
}

// Compress sends raw little-endian float32 samples and returns the
// compressed stream. len(raw) must be 4×(product of dims).
func (c *Client) Compress(ctx context.Context, raw []byte, dims []int, opts CompressOptions) (*CompressResult, error) {
	r, err := c.call(ctx, http.MethodPost, "/v1/compress", opts.query(dims), raw)
	if err != nil {
		return nil, err
	}
	res := &CompressResult{Data: r.body}
	if v := r.header.Get("X-Dpz-Dims"); v != "" {
		if res.Dims, err = dpz.ParseDims(v); err != nil {
			return nil, fmt.Errorf("client: bad X-Dpz-Dims %q: %w", v, err)
		}
	}
	res.CR, _ = strconv.ParseFloat(r.header.Get("X-Dpz-Cr"), 64)
	res.K, _ = strconv.Atoi(r.header.Get("X-Dpz-K"))
	res.TVE, _ = strconv.ParseFloat(r.header.Get("X-Dpz-Tve"), 64)
	res.Tiles, _ = strconv.Atoi(r.header.Get("X-Dpz-Tiles"))
	res.Basis = r.header.Get("X-Dpz-Basis")
	return res, nil
}

// Decompress sends a .dpz stream (or tiled archive) and returns the raw
// little-endian float32 samples and their dimensions. workers <= 0 takes
// the server default.
func (c *Client) Decompress(ctx context.Context, stream []byte, workers int) ([]byte, []int, error) {
	q := url.Values{}
	if workers > 0 {
		q.Set("workers", strconv.Itoa(workers))
	}
	r, err := c.call(ctx, http.MethodPost, "/v1/decompress", q, stream)
	if err != nil {
		return nil, nil, err
	}
	dims, err := dpz.ParseDims(r.header.Get("X-Dpz-Dims"))
	if err != nil {
		return nil, nil, fmt.Errorf("client: bad X-Dpz-Dims: %w", err)
	}
	return r.body, dims, nil
}

// PreviewResult is a progressive preview plus the decode depth and
// quality dpzd reported in its response headers.
type PreviewResult struct {
	// Data is raw little-endian float32 samples reconstructed from the
	// leading RanksUsed components.
	Data []byte
	// Dims is the field's dimensions.
	Dims []int
	// RanksUsed is the component count actually decoded (the requested
	// ranks clamped to the stream's stored k).
	RanksUsed int
	// K is the stream's stored component count.
	K int
	// TVE is the variance fraction the preview captured, from the
	// stream's retrieval index; 0 when the stream carries no index.
	TVE float64
	// ETag is the server's strong validator for this exact preview; with
	// Validators armed it drives If-None-Match revalidation automatically.
	ETag string
	// Cache reports how dpzd answered: "hit" (served from its response
	// cache or a 304 validator match), "miss" (computed, now cached) or
	// "bypass" (caching disabled). Empty when talking to an older daemon.
	Cache string
}

// Preview fetches a reconstruction from only the leading `ranks`
// principal components — a cheap low-fidelity view of a large stream.
// ranks <= 0 decodes everything; workers <= 0 takes the server default.
// Previews are pure functions of the stream, so retries and hedging are
// safe exactly as for Decompress.
func (c *Client) Preview(ctx context.Context, stream []byte, ranks, workers int) (*PreviewResult, error) {
	q := url.Values{}
	if ranks > 0 {
		q.Set("ranks", strconv.Itoa(ranks))
	}
	if workers > 0 {
		q.Set("workers", strconv.Itoa(workers))
	}
	r, err := c.call(ctx, http.MethodPost, "/v1/preview", q, stream)
	if err != nil {
		return nil, err
	}
	res := &PreviewResult{Data: r.body}
	if res.Dims, err = dpz.ParseDims(r.header.Get("X-Dpz-Dims")); err != nil {
		return nil, fmt.Errorf("client: bad X-Dpz-Dims: %w", err)
	}
	res.RanksUsed, _ = strconv.Atoi(r.header.Get("X-Dpz-Ranks-Used"))
	res.K, _ = strconv.Atoi(r.header.Get("X-Dpz-K"))
	res.TVE, _ = strconv.ParseFloat(r.header.Get("X-Dpz-Tve"), 64)
	res.ETag = r.header.Get("ETag")
	res.Cache = r.header.Get("X-Dpz-Cache")
	return res, nil
}

// QueryOptions selects what /v1/query should answer. The zero value asks
// for the aggregate statistics only.
type QueryOptions struct {
	// Predicates are range conditions over the tile summaries, ANDed
	// together, e.g. {"max>273.15", "rms<=10"}.
	Predicates []string
	// TopK, when positive, requests the TopK tiles most similar to tile
	// SimilarTo (coefficient-space cosine similarity).
	TopK int
	// SimilarTo is the seed tile for the similarity query.
	SimilarTo int
}

// QueryResult is the /v1/query JSON response.
type QueryResult struct {
	// Tiles is the number of tiles the index describes.
	Tiles int `json:"tiles"`
	// Aggregate is the whole-field statistics rollup.
	Aggregate dpz.IndexAggregate `json:"aggregate"`
	// Query echoes the question the matches answer.
	Query string `json:"query,omitempty"`
	// Matches are the selected tiles, with scores.
	Matches []dpz.Match `json:"matches,omitempty"`
}

// Query answers range/similarity/aggregate questions from a stream's (or
// tiled archive's) retrieval index without any decompression server-side.
// A stream without an index gets a 422 *APIError — permanent, not
// retried; callers fall back to Decompress and computing locally.
func (c *Client) Query(ctx context.Context, stream []byte, opts QueryOptions) (*QueryResult, error) {
	q := url.Values{}
	for _, p := range opts.Predicates {
		q.Add("pred", p)
	}
	if opts.TopK > 0 {
		q.Set("similar-to", strconv.Itoa(opts.SimilarTo))
		q.Set("k", strconv.Itoa(opts.TopK))
	}
	r, err := c.call(ctx, http.MethodPost, "/v1/query", q, stream)
	if err != nil {
		return nil, err
	}
	var res QueryResult
	if err := json.Unmarshal(r.body, &res); err != nil {
		return nil, fmt.Errorf("client: decoding query response: %w", err)
	}
	return &res, nil
}

// Stat returns a stream's metadata without decompressing it.
func (c *Client) Stat(ctx context.Context, stream []byte) (*dpz.StreamInfo, error) {
	r, err := c.call(ctx, http.MethodPost, "/v1/stat", nil, stream)
	if err != nil {
		return nil, err
	}
	var info dpz.StreamInfo
	if err := json.Unmarshal(r.body, &info); err != nil {
		return nil, fmt.Errorf("client: decoding stat response: %w", err)
	}
	return &info, nil
}

// Health checks the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.call(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}

// result is one fully read HTTP exchange.
type result struct {
	status int
	header http.Header
	body   []byte
	err    error // transport error; nil when status/header/body are set
	hedged bool  // answered by the hedge request, not the primary
}

// call runs the retry loop around attempt: transport errors, 429 and 5xx
// are retried with backoff (honoring Retry-After) until the policy's
// attempt budget or the caller's context runs out. When the validator
// cache holds an entry for this exact request, every attempt carries
// If-None-Match and a 304 answer replays the cached body.
func (c *Client) call(ctx context.Context, method, path string, q url.Values, body []byte) (*result, error) {
	var (
		vkey   vcacheKey
		ventry *vcacheEntry
		inm    string
	)
	vc := c.validators()
	if vc != nil {
		vkey = vc.keyFor(method, path, q.Encode(), body)
		if ventry = vc.get(vkey); ventry != nil {
			inm = ventry.etag
		}
	}

	var last result
	attempts := c.Retry.maxAttempts()
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			wait := c.backoff(attempt - 1)
			if last.err == nil {
				if ra, ok := c.retryAfter(last.header); ok {
					wait = ra
				}
			}
			if err := c.clock().Sleep(ctx, wait); err != nil {
				return nil, c.giveUp(last, err)
			}
		}
		last = c.attempt(ctx, method, path, q, body, inm)
		if last.err != nil {
			if ctx.Err() != nil {
				return nil, c.giveUp(last, ctx.Err())
			}
			continue
		}
		if !retryableStatus(last.status) {
			break
		}
	}
	if last.err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, last.err)
	}
	if last.status == http.StatusNotModified && ventry != nil {
		// The server vouched the cached response is still exact; replay it.
		// The replayed headers keep the 304's cache/ETag markers so callers
		// observe the validator hit.
		c.notModified.Add(1)
		hdr := ventry.header.Clone()
		if v := last.header.Get("X-Dpz-Cache"); v != "" {
			hdr.Set("X-Dpz-Cache", v)
		}
		return &result{status: http.StatusOK, header: hdr,
			body: append([]byte(nil), ventry.body...)}, nil
	}
	if last.status < 200 || last.status > 299 {
		return nil, &APIError{StatusCode: last.status,
			Message: strings.TrimSpace(string(last.body))}
	}
	if vc != nil {
		if et := last.header.Get("ETag"); et != "" {
			vc.put(vkey, et, last.header, last.body)
		}
	}
	return &last, nil
}

// giveUp wraps the terminal context error, keeping the last attempt's
// failure for the message.
func (c *Client) giveUp(last result, ctxErr error) error {
	why := "no attempt completed"
	if last.err != nil {
		why = last.err.Error()
	} else if last.status != 0 {
		why = fmt.Sprintf("last status %d", last.status)
	}
	return fmt.Errorf("client: %w (%s)", ctxErr, why)
}

// attempt performs one logical try: the request itself, plus — when
// hedging is armed and the primary is slow — a racing duplicate. The
// first definitive answer wins and the loser's context is cancelled.
func (c *Client) attempt(ctx context.Context, method, path string, q url.Values, body []byte, inm string) result {
	if c.HedgeDelay <= 0 {
		return c.once(ctx, method, path, q, body, inm)
	}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	primary := make(chan result, 1)
	go func() { primary <- c.once(pctx, method, path, q, body, inm) }()

	select {
	case r := <-primary:
		return r
	case <-c.clock().After(c.HedgeDelay):
	case <-ctx.Done():
		return result{err: ctx.Err()}
	}

	c.hedges.Add(1)
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	secondary := make(chan result, 1)
	go func() { secondary <- c.once(sctx, method, path, q, body, inm) }()

	// First definitive answer (a response that is not retryable) wins; a
	// retryable failure waits for its sibling as a fallback.
	var fallback result
	for i := 0; i < 2; i++ {
		var r result
		select {
		case r = <-primary:
			r.hedged = false
		case r = <-secondary:
			r.hedged = true
		}
		if r.err == nil && !retryableStatus(r.status) {
			if r.hedged {
				pcancel()
			} else {
				scancel()
			}
			return r
		}
		if i == 0 {
			fallback = r
		}
	}
	return fallback
}

// once sends a single HTTP request and reads the full response body. inm,
// when non-empty, is sent as If-None-Match.
func (c *Client) once(ctx context.Context, method, path string, q url.Values, body []byte, inm string) result {
	c.attempts.Add(1)
	u := strings.TrimSuffix(c.BaseURL, "/") + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return result{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
		req.ContentLength = int64(len(body))
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return result{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		// A torn body is a transport failure even though headers arrived:
		// report it as retryable, not as a short payload.
		return result{err: fmt.Errorf("reading response: %w", err)}
	}
	return result{status: resp.StatusCode, header: resp.Header, body: b}
}

func dimsString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

// IsTemporary reports whether err is worth retrying at a higher level:
// a transient APIError or a context-free transport failure.
func IsTemporary(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Temporary()
	}
	return err != nil && !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}
