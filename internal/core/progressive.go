package core

import (
	"context"

	"dpz/internal/metrics"
)

// Progressive decodes one stream at increasing fidelity, caching work
// across refinements: each Decode(r) checksums, inflates, dequantizes
// and inverse-transforms only the ranks not already decoded, then reruns
// the recompose over the cached rank rows and projection columns. It is
// Decompress's decoder kept alive between calls, so every Decode(r) is
// byte-identical to Decompress at rank r: each rank row comes from the
// same per-rank decoder, and the recompose GEMM always runs over the
// full requested rank, so no incremental-accumulation rounding can creep
// in.
//
// A Progressive is not safe for concurrent use; each Decode call may use
// `workers` goroutines internally.
type Progressive struct {
	d *decoder
}

// NewProgressive walks the stream's section table (no section is
// inflated yet) and returns a resumable decoder.
func NewProgressive(buf []byte, workers int) (*Progressive, error) {
	d, err := newDecoder(buf, workers)
	if err == nil {
		err = d.dataErr()
	}
	if err != nil {
		return nil, err
	}
	return &Progressive{d: d}, nil
}

// StoredRank returns k, the number of components the stream holds.
func (p *Progressive) StoredRank() int { return p.d.h.k }

// Dims returns the logical dimensions recorded at compression time.
func (p *Progressive) Dims() []int { return append([]int(nil), p.d.h.dims...) }

// Decode reconstructs from the leading `ranks` components (clamped to
// [1, k]; ranks <= 0 means all), reusing every rank decoded by earlier
// calls. It returns the data, dims and the rank actually used.
func (p *Progressive) Decode(ranks int) ([]float64, []int, int, error) {
	return p.DecodeContext(context.Background(), ranks, nil)
}

// DecodeContext is Decode with cooperative cancellation. tr (nil for
// none) receives Decompress's spans for the work this call did: no
// inflate or dequant span when every rank was already decoded.
func (p *Progressive) DecodeContext(ctx context.Context, ranks int, tr *metrics.Trace) ([]float64, []int, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tStart := metrics.Now()
	used := p.d.h.k
	if ranks > 0 && ranks < used {
		used = ranks
	}
	if err := p.d.extend(ctx, used, tr); err != nil {
		return nil, nil, 0, err
	}
	data, err := p.d.recompose(used, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	tr.Add("total", "", tStart)
	return data, p.Dims(), used, nil
}
