package dpz

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"dpz/internal/basiscache"
	"dpz/internal/core"
)

// BasisCache holds fitted PCA bases keyed by tile shape, fit-relevant
// options and coarsely quantized per-tile statistics, so that
// compressions of similar tiles can reuse (or warm-start from) an
// earlier tile's basis instead of paying for a fresh eigensolve. Create
// one with NewBasisCache and share it via Options.BasisCache — across the
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
// guard needs an explicit TVE target to verify candidates against, and
// the warm solver only helps paths that compute a truncated basis; plain
// knee-point selection needs the full spectrum.
func basisEligible(o Options) bool {
	if !o.BasisReuse {
		return false
	}
	return o.Selection == TVEThreshold || o.UseSampling
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
