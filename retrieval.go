package dpz

import (
	"context"

	"dpz/internal/core"
	"dpz/internal/retrieval"
	"dpz/internal/stats"
)

// Compressed-domain retrieval: every format-v3 stream carries a trailing
// index section with per-tile summaries (min/max/mean/RMS and per-rank
// coefficient energy), gathered during compression at no extra pass over
// the data. The index answers range predicates, top-k similarity and
// aggregate statistics without inflating a single data section, and the
// rank-ordered layout serves cheap previews from only the leading
// components. See docs/FORMAT.md for the on-disk layout.

// TileSummary is the per-tile statistics record stored in a stream's
// index section: value statistics plus the per-rank PCA coefficient
// energy that similarity scoring runs on.
type TileSummary = retrieval.Summary

// Index is a queryable collection of tile summaries — one per stream for
// single-shot compressions, one per slab for tiled archives. Its Range,
// TopK, SimilarTo and Aggregate methods answer queries from the summaries
// alone.
type Index = retrieval.Index

// Predicate is one range-query condition over a summary field, e.g.
// "max>273.15"; build them with ParsePredicate or literals.
type Predicate = retrieval.Predicate

// Match is one query result: a tile number and its score (the predicate
// field's value for range queries, cosine similarity for TopK).
type Match = retrieval.Match

// IndexAggregate is the whole-field statistics roll-up computed from an
// index; see Index.Aggregate.
type IndexAggregate = retrieval.Aggregate

// IndexCorruptError reports a structurally damaged index payload. It
// wraps ErrNoIndex, so callers that only care about "queries unavailable,
// fall back to a full decode" can errors.Is against ErrNoIndex alone.
type IndexCorruptError = retrieval.CorruptError

// ErrNoIndex reports that a stream or archive carries no usable retrieval
// index — written with NoIndex, produced by a pre-index release, or
// damaged beyond parsing. Data decoding is unaffected; fall back to
// decompressing and computing directly.
var ErrNoIndex = retrieval.ErrNoIndex

// ParsePredicate parses a textual range predicate like "max>273.15" or
// "rms<=1e-3" (fields min, max, mean, rms; operators >, >=, <, <=).
func ParsePredicate(s string) (Predicate, error) { return retrieval.ParsePredicate(s) }

// ReadIndex extracts the retrieval index from a single DPZ stream without
// inflating any data section. Streams without a usable index return an
// error wrapping ErrNoIndex.
func ReadIndex(buf []byte) (*Index, error) { return core.ReadIndex(buf) }

// DecompressRanks reconstructs a preview from only the `ranks` leading
// principal components, inflating just those sections (plus side data):
// trailing sections are never touched, so a low-rank preview of a large
// stream costs a fraction of the full decode. It is DecompressRank that
// clamps instead of failing: ranks <= 0 or >= the stored k decodes
// everything. Returns the values, dims and the rank actually used.
func DecompressRanks(buf []byte, ranks int) ([]float32, []int, int, error) {
	d, dims, used, err := DecompressRanksFloat64(buf, ranks)
	if err != nil {
		return nil, nil, 0, err
	}
	return stats.Float64To32(d), dims, used, nil
}

// DecompressRanksFloat64 is DecompressRanks with double-precision output.
func DecompressRanksFloat64(buf []byte, ranks int) ([]float64, []int, int, error) {
	return decompressRanks(context.Background(), buf, ranks, 0)
}

// DecompressRanksContext is DecompressRanks with cooperative cancellation
// and an explicit worker bound (0 = GOMAXPROCS).
func DecompressRanksContext(ctx context.Context, buf []byte, ranks, workers int) ([]float32, []int, int, error) {
	d, dims, used, err := decompressRanks(ctx, buf, ranks, workers)
	if err != nil {
		return nil, nil, 0, err
	}
	return stats.Float64To32(d), dims, used, nil
}

// decompressRanks is a one-shot Progressive: the rank-r decode with the
// rank clamped to the stored k.
func decompressRanks(ctx context.Context, buf []byte, ranks, workers int) ([]float64, []int, int, error) {
	p, err := core.NewProgressive(buf, workers)
	if err != nil {
		return nil, nil, 0, err
	}
	return p.DecodeContext(ctx, ranks, nil)
}

// Progressive decodes one stream at increasing fidelity: each Decode(r)
// call reuses every section already inflated by earlier calls, so
// refining a preview from rank 4 to rank 16 only pays for ranks 5-16.
// Each result is byte-identical to DecompressRankFloat64 at the same
// rank. Not safe for concurrent use.
type Progressive struct {
	p *core.Progressive
}

// NewProgressive parses the stream's structure (no payload inflation) and
// returns a progressive decoder positioned before rank 1. workers bounds
// the parallel section decode (0 = GOMAXPROCS).
func NewProgressive(buf []byte, workers int) (*Progressive, error) {
	p, err := core.NewProgressive(buf, workers)
	if err != nil {
		return nil, err
	}
	return &Progressive{p: p}, nil
}

// StoredRank returns the stream's stored component count k.
func (p *Progressive) StoredRank() int { return p.p.StoredRank() }

// Dims returns the stream's original dimensions.
func (p *Progressive) Dims() []int { return p.p.Dims() }

// Decode reconstructs from the `ranks` leading components (<= 0 or >= k
// decodes all), returning values, dims and the rank used.
func (p *Progressive) Decode(ranks int) ([]float64, []int, int, error) {
	return p.p.Decode(ranks)
}

// DecodeContext is Decode with cooperative cancellation.
func (p *Progressive) DecodeContext(ctx context.Context, ranks int) ([]float64, []int, int, error) {
	return p.p.DecodeContext(ctx, ranks, nil)
}
