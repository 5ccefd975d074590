package basiscache

import (
	"context"
	"math"
	"testing"
	"time"

	"dpz/internal/mat"
	"dpz/internal/pca"
)

func testBasis(cols int) *pca.Basis {
	q := mat.NewDense(4, cols)
	for j := 0; j < cols; j++ {
		q.Set(j%4, j, 1)
	}
	return &pca.Basis{Q: q}
}

func key(i int) Key { return Key{Dims: "4x4", Opt: uint64(i)} }

func TestLeaderFollowerPromise(t *testing.T) {
	c := New(4)
	h := c.Acquire(key(1))
	if !h.Leader() {
		t.Fatal("first acquire must be the leader")
	}
	f := c.Acquire(key(1))
	if f.Leader() {
		t.Fatal("second acquire of a pending key must be a follower")
	}

	want := testBasis(2)
	go func() {
		time.Sleep(10 * time.Millisecond)
		h.Fulfill(want)
	}()
	got, err := f.Candidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("follower got %p, want the fulfilled basis %p", got, want)
	}

	// A later acquire sees the fulfilled entry immediately.
	f2 := c.Acquire(key(1))
	if f2.Leader() {
		t.Fatal("fulfilled entry must not elect a new leader")
	}
	got, err = f2.Candidate(context.Background())
	if err != nil || got != want {
		t.Fatalf("late follower got (%p, %v), want (%p, nil)", got, err, want)
	}

	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Inserts != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits / 1 insert", st)
	}
}

func TestFulfillNilRetracts(t *testing.T) {
	c := New(4)
	h := c.Acquire(key(7))
	f := c.Acquire(key(7))
	h.Fulfill(nil)
	got, err := f.Candidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("retracted entry must hand followers a nil candidate")
	}
	if c.Len() != 0 {
		t.Fatalf("retracted entry still cached: len = %d", c.Len())
	}
	// The key is re-electable after retraction.
	if !c.Acquire(key(7)).Leader() {
		t.Fatal("acquire after retraction must elect a new leader")
	}
}

func TestFulfillIsOnce(t *testing.T) {
	c := New(4)
	h := c.Acquire(key(3))
	want := testBasis(1)
	h.Fulfill(want)
	h.Fulfill(nil) // the deferred safety net must not retract a published basis
	got, err := c.Acquire(key(3)).Candidate(context.Background())
	if err != nil || got != want {
		t.Fatalf("got (%p, %v), want (%p, nil)", got, err, want)
	}
}

func TestCandidateHonorsContext(t *testing.T) {
	c := New(4)
	c.Acquire(key(9)) // leader never fulfills
	f := c.Acquire(key(9))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Candidate(ctx); err == nil {
		t.Fatal("Candidate must fail when the context is cancelled")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	for i := 0; i < 3; i++ {
		h := c.Acquire(key(i))
		h.Fulfill(testBasis(1))
	}
	// Capacity 2: inserting key 2 must have evicted key 0 (the oldest).
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if !c.Acquire(key(0)).Leader() {
		t.Fatal("oldest key should have been evicted")
	}
	if c.Acquire(key(2)).Leader() {
		t.Fatal("newest key should have survived eviction")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st)
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := New(2)
	for i := 0; i < 2; i++ {
		c.Acquire(key(i)).Fulfill(testBasis(1))
	}
	c.Acquire(key(0)) // touch the older entry
	c.Acquire(key(2)).Fulfill(testBasis(1))
	if c.Acquire(key(0)).Leader() {
		t.Fatal("recently touched key was evicted")
	}
	if !c.Acquire(key(1)).Leader() {
		t.Fatal("least recently used key survived eviction")
	}
}

func TestQuantizeBuckets(t *testing.T) {
	// Values within a quarter-octave share a bucket; values an octave
	// apart never do.
	if quantize(1.0) != quantize(1.05) {
		t.Fatal("1.0 and 1.05 must share a quarter-octave bucket")
	}
	if quantize(1.0) == quantize(2.0) {
		t.Fatal("values an octave apart must not share a bucket")
	}
	if quantize(0) != 0 {
		t.Fatalf("quantize(0) = %d, want 0", quantize(0))
	}
	if quantize(1.0) == quantize(-1.0) {
		t.Fatal("sign must be encoded in the bucket")
	}
	if quantize(math.NaN()) != qNonFinite || quantize(math.Inf(1)) != qNonFinite {
		t.Fatal("non-finite values must map to the sentinel bucket")
	}
	// Extreme magnitudes clamp instead of overflowing.
	if quantize(math.MaxFloat64) == qNonFinite {
		t.Fatal("finite extremes must stay out of the sentinel bucket")
	}
}

func TestKeySeparatesDissimilarData(t *testing.T) {
	smooth := make([]float64, 256)
	shifted := make([]float64, 256)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 20)
		shifted[i] = 100 * (1 + math.Sin(float64(i)/20))
	}
	c := New(8)
	c.Acquire(KeyFor("16x16", 1, smooth)).Fulfill(testBasis(1))
	// Very different scale: not the same key, and not within one bucket of
	// it either — must elect a fresh leader.
	if !c.Acquire(KeyFor("16x16", 1, shifted)).Leader() {
		t.Fatal("fields with very different scales must not collide")
	}
}

func TestAcquireMatchesDriftedTile(t *testing.T) {
	// A tiny multiplicative drift can flip a statistic that sits on a
	// quantization-bucket boundary into the adjacent bucket. Acquire's
	// neighbor probing must still find the entry — this is the whole
	// point of the cache on slowly-evolving tile sequences.
	smooth := make([]float64, 256)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 20) // half-range ≈ 1.0, right on a boundary
	}
	drifted := make([]float64, 256)
	for i := range smooth {
		drifted[i] = smooth[i] * (1 + 1e-5)
	}
	a := KeyFor("16x16", 1, smooth)
	b := KeyFor("16x16", 1, drifted)
	if a == b {
		t.Skip("drift did not cross a bucket boundary on this platform")
	}
	c := New(8)
	c.Acquire(a).Fulfill(testBasis(1))
	if c.Acquire(b).Leader() {
		t.Fatal("a 1e-5 drift must find the neighboring bucket's entry")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want the drifted acquire counted as a hit", st)
	}
}
