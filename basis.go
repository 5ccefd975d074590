package dpz

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"dpz/internal/basiscache"
	"dpz/internal/core"
	"dpz/internal/parallel"
)

// BasisCache holds fitted PCA bases keyed by tile shape, fit-relevant
// options and coarsely quantized per-tile statistics, so that
// compressions of similar tiles can reuse an earlier tile's basis
// instead of paying for a fresh eigensolve. Create one with
// NewBasisCache and share it via Options.BasisCache — across the
// tiles of one CompressTiled call this happens automatically, but a
// long-lived cache (e.g. one per dpzd daemon) also carries bases across
// whole requests.
//
// Reuse never changes what compression guarantees: a cached basis is
// adopted only after a quality guard verifies it still meets the TVE
// target on the new tile's own data, and the error-bounded quantization
// stage is untouched. See docs/PERFORMANCE.md for the determinism
// contract.
type BasisCache struct {
	c *basiscache.Cache
}

// NewBasisCache returns a cache bounded to capacity entries (<= 0 uses
// the default of 64). The memory cost of an entry is one basis: an
// M×(k+8) float64 matrix.
func NewBasisCache(capacity int) *BasisCache {
	return &BasisCache{c: basiscache.New(capacity)}
}

// BasisCacheStats is a snapshot of a cache's activity counters.
type BasisCacheStats struct {
	// Hits counts lookups that found a (possibly in-flight) basis.
	Hits uint64
	// Misses counts lookups that found nothing and made the caller fit
	// cold as the new owner of the key.
	Misses uint64
	// Inserts counts bases published into the cache.
	Inserts uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
}

// Stats returns a snapshot of the cache's activity counters.
func (b *BasisCache) Stats() BasisCacheStats {
	s := b.c.Stats()
	return BasisCacheStats{Hits: s.Hits, Misses: s.Misses, Inserts: s.Inserts, Evictions: s.Evictions}
}

// Len returns the current entry count.
func (b *BasisCache) Len() int { return b.c.Len() }

// Capacity returns the entry bound.
func (b *BasisCache) Capacity() int { return b.c.Capacity() }

// basisEligible reports whether basis reuse can do anything for o. The
// guard needs an explicit TVE target to verify candidates against; a
// knee-selected k, sampled or not, has none and always fits cold.
func basisEligible(o Options) bool {
	return o.BasisReuse && o.Selection == TVEThreshold
}

// basisFingerprint hashes every option that influences the fitted basis
// or the reuse decision. Workers, ZLevel and CollectDiagnostics are
// deliberately excluded: they change scheduling, the lossless add-on and
// measurement, never the basis — and excluding Workers is what lets one
// cache serve runs with different parallelism without key churn.
func basisFingerprint(o Options) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%d|%d|%v|%d|%v|%d|%d|%v|%d|%d|%d|%v|%v|%v",
		o.P, o.IndexBytes, o.Selection, o.TVE, o.Fit, o.UseSampling,
		o.SamplingSubsets, o.SamplingPick, o.SamplingRate, o.Standardize,
		o.MaxBlocks, o.Seed, o.Use2DDCT, o.CoeffTruncate, o.DoublePrecision)
	return h.Sum64()
}

// dimsKey renders dims in the canonical "AxBxC" form used in cache keys.
func dimsKey(dims []int) string {
	var sb strings.Builder
	for i, d := range dims {
		if i > 0 {
			sb.WriteByte('x')
		}
		sb.WriteString(strconv.Itoa(d))
	}
	return sb.String()
}

// compressWithHandle runs one compression under the cache-handle
// protocol: a leader fits (cold) and publishes the basis it used; a
// follower waits for its leader's basis and offers it to the reuse-aware
// fit as a candidate. The deferred Fulfill(nil) retracts the entry on
// any failure path — Fulfill is once-only, so the explicit success call
// wins when the compression completes.
func compressWithHandle(ctx context.Context, data []float64, dims []int, o Options, h *basiscache.Handle) (*Result, error) {
	p := o.toCore()
	ex := &core.BasisExchange{}
	p.Basis = ex
	if h.Leader() {
		defer h.Fulfill(nil)
	} else {
		cand, err := h.Candidate(ctx)
		if err != nil {
			return nil, err
		}
		ex.Candidate = cand
	}
	c, err := core.CompressContext(ctx, data, dims, p)
	if err != nil {
		return nil, err
	}
	if h.Leader() {
		h.Fulfill(ex.Fitted)
	}
	return &Result{Data: c.Bytes, Stats: fromCoreStats(c.Stats)}, nil
}

// archiveStream is one stream compressStreams compresses: its values,
// its logical dims and the label its errors carry.
type archiveStream struct {
	label string
	data  []float64
	dims  []int
}

// streamJob is an archiveStream with its basis-cache handle (nil when
// reuse is off).
type streamJob struct {
	archiveStream
	h *basiscache.Handle
}

// compressStreams is the one pipeline behind CompressTiledContext and
// CompressBatch. read yields streams 0..n-1 in order; up to o.Workers of
// them compress concurrently, each with its share of the worker budget;
// sink receives every finished stream strictly in stream order, so the
// archive is the same for every worker count. prefetch is how many
// streams read runs ahead of the slowest in-flight compression. It
// returns the per-stream stats in stream order.
//
// With basis reuse on, cache slots are acquired in the sequential source
// stage, in stream order, so the candidate each stream sees is a pure
// function of the input and options, whatever the worker count. A
// follower blocks until its leader publishes. If the pipeline fails, a
// leader's job can be drained without ever running, so every failure
// cancels pctx, which wakes the followers and stops the in-flight
// compressions, and every leader handle is retracted once the pipeline
// has stopped (Fulfill is once-only, so published bases stay).
func compressStreams(ctx context.Context, n, prefetch int, o Options,
	read func(i int) (archiveStream, error), sink func(i int, stream []byte) error) ([]Stats, error) {
	// Split the worker budget: wt streams in flight, each compressing with
	// inner workers, so total goroutines stay near the budget whether
	// there are many small streams or a few big ones.
	wall := o.Workers
	if wall <= 0 {
		wall = parallel.DefaultWorkers()
	}
	wt := min(wall, n)
	inner := o
	inner.Workers = (wall + wt - 1) / wt

	// With no caller-provided cache the reuse scope is this call.
	var cache *basiscache.Cache
	var optFP uint64
	if basisEligible(o) {
		cache = basiscache.New(0)
		if o.BasisCache != nil {
			cache = o.BasisCache.c
		}
		optFP = basisFingerprint(o)
	}
	var leaders []*basiscache.Handle
	defer func() {
		for _, h := range leaders {
			h.Fulfill(nil)
		}
	}()

	// stop records the failure that stops the pipeline and cancels pctx.
	// The streams it cancels fail with context.Canceled; the call reports
	// the failure instead.
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	var stopOnce sync.Once
	var cause error
	stop := func(err error) error {
		stopOnce.Do(func() {
			cause = err
			pcancel()
		})
		return err
	}

	stats := make([]Stats, 0, n)
	err := parallel.PipelineCtx(ctx, wt, prefetch,
		func(emit func(streamJob) bool) error {
			for i := 0; i < n; i++ {
				s, err := read(i)
				if err != nil {
					return stop(err)
				}
				j := streamJob{archiveStream: s}
				if cache != nil {
					j.h = cache.Acquire(basiscache.KeyFor(dimsKey(s.dims), optFP, s.data))
					if j.h.Leader() {
						leaders = append(leaders, j.h)
					}
				}
				if !emit(j) {
					return nil
				}
			}
			return nil
		},
		func(j streamJob) (res *Result, err error) {
			defer func() {
				if res == nil {
					stop(err) // an error or a panic
				}
			}()
			if j.h != nil {
				res, err = compressWithHandle(pctx, j.data, j.dims, inner, j.h)
			} else {
				res, err = CompressFloat64Context(pctx, j.data, j.dims, inner)
			}
			if err != nil {
				return nil, fmt.Errorf("dpz: %s: %w", j.label, err)
			}
			return res, nil
		},
		func(i int, res *Result) error {
			if err := sink(i, res.Data); err != nil {
				return stop(err)
			}
			stats = append(stats, res.Stats)
			return nil
		},
	)
	if ctx.Err() == nil && cause != nil && errors.Is(err, context.Canceled) {
		err = cause
	}
	if err != nil {
		return nil, err
	}
	return stats, nil
}
