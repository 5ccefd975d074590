package core

import (
	"context"
	"fmt"

	"dpz/internal/blockio"
	"dpz/internal/integrity"
	"dpz/internal/mat"
	"dpz/internal/parallel"
)

// Progressive decodes one stream at increasing fidelity, caching work
// across refinements: each Decode(r) inflates, dequantizes and inverse-
// transforms only the ranks not already decoded, then reruns the
// recompose from the cached rank rows and projection columns. Every
// Decode(r) is byte-identical to DecompressRank(buf, workers, r): each
// rank row comes from the same per-rank decoder, and the recompose GEMM
// always runs over the full requested rank, so no incremental-
// accumulation rounding can creep in.
//
// A Progressive is not safe for concurrent use; each Decode call may use
// `workers` goroutines internally.
type Progressive struct {
	buf     []byte
	ps      parsedStream
	workers int

	v1 *container // v1 fallback: monolithic sections, decoded once

	means, scales []float64
	rows          [][]float64 // inverse-transformed rank rows, filled to done
	pcols         [][]float64 // projection columns, filled to done
	done          int
}

// NewProgressive parses the stream headers (no section is inflated yet)
// and returns a resumable decoder.
func NewProgressive(buf []byte, workers int) (*Progressive, error) {
	ps, err := parseSections(buf)
	if err != nil {
		return nil, err
	}
	p := &Progressive{buf: buf, ps: ps, workers: workers}
	k := ps.h.k
	p.rows = make([][]float64, k)
	p.pcols = make([][]float64, k)
	return p, nil
}

// StoredRank returns k, the number of components the stream holds.
func (p *Progressive) StoredRank() int { return p.ps.h.k }

// Dims returns the logical dimensions recorded at compression time.
func (p *Progressive) Dims() []int { return append([]int(nil), p.ps.h.dims...) }

// Decode reconstructs from the leading `ranks` components (clamped to
// [1, k]; ranks <= 0 means all), reusing every rank decoded by earlier
// calls. It returns the data, dims and the rank actually used.
func (p *Progressive) Decode(ranks int) ([]float64, []int, int, error) {
	return p.DecodeContext(context.Background(), ranks)
}

// DecodeContext is Decode with cooperative cancellation.
func (p *Progressive) DecodeContext(ctx context.Context, ranks int) ([]float64, []int, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h := p.ps.h
	used := h.k
	if ranks > 0 && ranks < h.k {
		used = ranks
	}
	if p.ps.version == formatV1 {
		// v1 sections are monolithic; decode the container once and
		// truncate per call.
		if p.v1 == nil {
			c, err := decodeContainer(ctx, p.buf, p.workers)
			if err != nil {
				return nil, nil, 0, err
			}
			p.v1 = &c
		}
		data, dims, err := decompressParsed(ctx, *p.v1, p.workers, used, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		return data, dims, used, nil
	}
	if err := p.extend(ctx, used); err != nil {
		return nil, nil, 0, err
	}

	zt := mat.NewDense(used+1, h.n)
	projT := mat.NewDense(used, h.m)
	for j := 0; j < used; j++ {
		copy(zt.Row(j), p.rows[j])
		copy(projT.Row(j), p.pcols[j])
	}
	mode := h.mode()
	meansCarrier(mode, zt.Row(used))
	shape := blockio.Shape{M: h.m, N: h.n, Padded: h.m * h.n}
	data, err := recomposeRankSpace(zt, projT, p.means, p.scales, shape, h.origLen, mode, p.workers, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	return data, append([]int(nil), h.dims...), used, nil
}

// extend decodes the side data (first call) and the ranks in [done,
// used), checksumming and inflating only those sections.
func (p *Progressive) extend(ctx context.Context, used int) error {
	h := p.ps.h
	mode := h.mode()
	if p.means == nil {
		meansSec, err := p.section(ctx, 0)
		if err != nil {
			return err
		}
		var scalesSec []byte
		if h.flags&flagStandardized != 0 {
			if scalesSec, err = p.section(ctx, 1); err != nil {
				return err
			}
		}
		if p.means, p.scales, err = decodeSideData(h, meansSec, scalesSec); err != nil {
			return err
		}
	}
	if used <= p.done {
		return nil
	}
	base := 1
	if h.flags&flagStandardized != 0 {
		base = 2
	}
	lo := p.done
	errs := make([]error, used-lo)
	if err := parallel.ForCtx(ctx, used-lo, p.workers, func(i int) {
		j := lo + i
		scoreSec, err := p.section(ctx, base+2*j)
		if err != nil {
			errs[i] = err
			return
		}
		projSec, err := p.section(ctx, base+2*j+1)
		if err != nil {
			errs[i] = err
			return
		}
		row, pcol := make([]float64, h.n), make([]float64, h.m)
		if errs[i] = decodeRank(h, mode, j, scoreSec, projSec, row, pcol); errs[i] == nil {
			p.rows[j], p.pcols[j] = row, pcol
		}
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	p.done = used
	return nil
}

// section checksums and inflates data section s.
func (p *Progressive) section(ctx context.Context, s int) ([]byte, error) {
	ref := p.ps.refs[s]
	if got := integrity.Checksum(ref.comp); got != ref.crc {
		return nil, fmt.Errorf("core: section %d (%s) %w (stored %08x, computed %08x)",
			s, v2SectionName(p.ps.h, s), integrity.ErrCRC, ref.crc, got)
	}
	return inflateSection(ctx, ref.comp, ref.rawLen, 1)
}
