// Package basiscache provides a bounded, deterministic cache of fitted
// PCA bases keyed by coarse per-tile statistics. It exists so that the
// hot path can hand the basis one tile produced to the next similar tile
// as a candidate (see pca.FitReuse): the tile adopts it if the quality
// guard accepts it and fits cold otherwise, so repeated O(M³)
// eigensolves over near-identical tiles become cheap guard checks.
//
// # Determinism contract
//
// Cache state must evolve as a pure function of the sequence of keys
// presented to Acquire — never of worker count, scheduling, or arrival
// timing. The intended usage upholds this: every Acquire happens in the
// compression pipeline's sequential source stage (tile submission
// order), which is fixed for a given input regardless of how many
// workers later execute the fits. A miss returns a leader handle whose
// Fulfill publishes the fitted basis (or, on nil, retracts the pending
// entry); a hit returns a follower handle whose Candidate blocks until
// the leader publishes. Followers never mutate the cache, so the
// candidate any given tile observes is fully determined by tile order.
package basiscache

import (
	"container/list"
	"context"
	"sync"

	"dpz/internal/pca"
)

// Key identifies a class of tiles expected to share a principal
// subspace: identical logical shape, identical fit-relevant options, and
// per-tile summary statistics that agree after coarse (quarter-octave)
// log-scale quantization. Key is comparable and is used directly as the
// cache map key.
type Key struct {
	// Dims is the tile's logical shape (e.g. "256x256").
	Dims string
	// Opt fingerprints every compression option that influences the
	// fitted basis (scheme, selection, TVE target, fit strategy, ...).
	Opt uint64
	// QMean, QStd and QRange are the tile's mean, standard deviation and
	// half-range, each quantized to quarter-octave log2 buckets with sign
	// carried separately. Tiles whose statistics round to the same
	// buckets are close enough that one's basis is a plausible candidate
	// for the other — the quality guard still verifies before adoption.
	QMean, QStd, QRange int32
}

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 64

// Stats is a snapshot of cache activity counters.
type Stats struct {
	// Hits counts Acquire calls that found an entry (follower handles).
	Hits uint64
	// Misses counts Acquire calls that created an entry (leader handles).
	Misses uint64
	// Inserts counts published bases (leader Fulfill with a non-nil basis).
	Inserts uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
}

type entry struct {
	key   Key
	elem  *list.Element
	done  chan struct{} // closed once the leader fulfills (or retracts)
	basis *pca.Basis    // nil until fulfilled; nil after a retraction
}

// Cache is a bounded LRU of fitted bases. All methods are safe for
// concurrent use; see the package comment for the determinism contract
// callers must uphold (Acquire only from a sequential stage).
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*entry
	order    *list.List // front = most recently used
	stats    Stats
}

// New returns a cache bounded to capacity entries (DefaultCapacity if
// capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[Key]*entry),
		order:    list.New(),
	}
}

// Capacity returns the cache's entry bound.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the current number of entries (pending and fulfilled).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Acquire looks up key and returns a handle describing the caller's
// role. On a miss the caller becomes the entry's leader: it MUST
// eventually call Fulfill exactly once — with the fitted basis on
// success, or nil to retract the entry (e.g. the compression failed or
// took an ineligible path). On a hit the caller is a follower: Candidate
// blocks until the leader publishes and Fulfill is a no-op.
//
// An exact-key miss probes the adjacent quantization buckets of each
// statistic (in a fixed order) before electing a leader: a tile whose
// mean, spread or range happens to sit on a bucket boundary would
// otherwise miss its near-identical neighbors whenever a tiny drift
// flips the bucket. Probing is part of the lookup, so the determinism
// contract is unchanged — the handle returned is still a pure function
// of the key sequence.
//
// Acquire must be called from a sequential stage (one goroutine, fixed
// order) for the determinism contract to hold.
func (c *Cache) Acquire(key Key) *Handle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lookup(key); ok {
		c.stats.Hits++
		c.order.MoveToFront(e.elem)
		return &Handle{cache: c, ent: e, leader: false}
	}
	c.stats.Misses++
	e := &entry{key: key, done: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		ev := oldest.Value.(*entry)
		c.order.Remove(oldest)
		delete(c.entries, ev.key)
		c.stats.Evictions++
	}
	return &Handle{cache: c, ent: e, leader: true}
}

// lookup finds the entry for key, trying the exact key first and then
// the neighbors that differ by one quantization bucket in any of the
// three statistics. The probe order is fixed (exact, then nested
// -1/+1 bucket offsets per stat) so the result depends only on cache
// contents, never on map iteration order. Callers hold c.mu.
func (c *Cache) lookup(key Key) (*entry, bool) {
	if e, ok := c.entries[key]; ok {
		return e, true
	}
	for _, dm := range bucketOffsets(key.QMean) {
		for _, ds := range bucketOffsets(key.QStd) {
			for _, dr := range bucketOffsets(key.QRange) {
				if dm == 0 && ds == 0 && dr == 0 {
					continue // the exact key, already tried
				}
				probe := key
				probe.QMean += dm
				probe.QStd += ds
				probe.QRange += dr
				if e, ok := c.entries[probe]; ok {
					return e, true
				}
			}
		}
	}
	return nil, false
}

// bucketOffsets returns the code deltas to probe around one quantized
// statistic: the bucket itself plus its two same-sign neighbors.
// Adjacent log2 buckets of the same sign differ by 2 in code space (the
// low bit carries the sign), and the zero / non-finite sentinels have no
// meaningful neighbors.
func bucketOffsets(code int32) []int32 {
	if code == 0 || code == qNonFinite {
		return []int32{0}
	}
	return []int32{0, -2, 2}
}

// Handle is one Acquire's view of a cache entry.
type Handle struct {
	cache  *Cache
	ent    *entry
	leader bool
	once   sync.Once
}

// Leader reports whether this handle owns the entry and must Fulfill it.
func (h *Handle) Leader() bool { return h.leader }

// Candidate returns the basis the entry's leader published, blocking
// until it does (or ctx is cancelled). A nil basis with nil error means
// the leader retracted the entry — the caller should fit cold. Calling
// Candidate on a leader handle returns nil immediately.
func (h *Handle) Candidate(ctx context.Context) (*pca.Basis, error) {
	if h.leader {
		return nil, nil
	}
	select {
	case <-h.ent.done:
		return h.ent.basis, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Fulfill publishes the leader's fitted basis and wakes all followers.
// A nil basis retracts the entry: followers fit cold and the key is
// removed from the cache (if still present) so a later tile can lead
// again. Only the first call has any effect — a deferred safety-net
// Fulfill(nil) composes with an explicit success Fulfill(b). Follower
// handles ignore Fulfill entirely.
func (h *Handle) Fulfill(b *pca.Basis) {
	if !h.leader {
		return
	}
	h.once.Do(func() {
		c := h.cache
		c.mu.Lock()
		h.ent.basis = b
		if b == nil {
			// Retract: drop the pending entry if the LRU has not already.
			if cur, ok := c.entries[h.ent.key]; ok && cur == h.ent {
				c.order.Remove(h.ent.elem)
				delete(c.entries, h.ent.key)
			}
		} else {
			c.stats.Inserts++
		}
		c.mu.Unlock()
		close(h.ent.done)
	})
}
