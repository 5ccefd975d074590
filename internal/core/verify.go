package core

import (
	"context"
	"fmt"
	"strings"

	"dpz/internal/integrity"
)

// CorruptionError reports checksum or structural damage found in a DPZ
// stream and — when returned by DecompressBestEffort alongside data —
// what was still recovered.
type CorruptionError struct {
	// Sections names the damaged regions in stream order, e.g. "means",
	// "rank 3 scores", "rank 3 projection".
	Sections []string
	// RecoveredRank is the number of leading components a best-effort
	// reconstruction used (0 when nothing was recovered, or when the
	// error comes from Verify, which recovers nothing).
	RecoveredRank int
	// StoredRank is the component count K recorded in the header.
	StoredRank int
}

func (e *CorruptionError) Error() string {
	what := strings.Join(e.Sections, ", ")
	if e.RecoveredRank > 0 {
		return fmt.Sprintf("core: corrupt stream (%s); recovered rank %d of %d", what, e.RecoveredRank, e.StoredRank)
	}
	return fmt.Sprintf("core: corrupt stream (%s)", what)
}

// scan is the damage-tolerant pass behind Verify and
// DecompressBestEffort. On a walked v2/v3 stream it checksums and
// inflates every data section, returning the inflated sections (nil
// where damaged; release them), the damaged sections' names in stream
// order and the number of leading ranks that are intact along with the
// side data. A section whose checksum fails, whose declared sizes derail
// the walk, or whose payload does not inflate to its declared length is
// damaged; bytes after the last section add "container framing". The
// v3 index is checksummed and its lengths compared but, being stored
// raw, never inflated.
func (d *decoder) scan() (raw [][]byte, bad []string, intact int) {
	// A Background context never cancels, so inflate cannot fail as a
	// whole; damage is reported per section in errs.
	raw, errs, _ := d.inflate(context.Background(), 0, d.ndata())
	for s, sec := range d.secs {
		damaged := sec.err != nil
		if s < len(errs) {
			damaged = errs[s] != nil
		} else if !damaged {
			damaged = integrity.Checksum(sec.comp) != sec.crc || sec.rawLen != len(sec.comp)
		}
		if damaged {
			bad = append(bad, d.sectionName(s))
		}
	}
	if d.trailing != 0 {
		bad = append(bad, "container framing")
	}
	if firstErr(errs[:d.sectionsThrough(0)]) != nil {
		return raw, bad, 0
	}
	for intact < d.h.k {
		s := d.sectionsThrough(intact)
		if errs[s] != nil || errs[s+1] != nil {
			break
		}
		intact++
	}
	return raw, bad, intact
}

// Verify checks a stream's structure and checksums without
// reconstructing any data. For v2/v3 streams it validates the header CRC
// and every section CRC and inflates every data section, so a section
// header whose declared raw length no longer matches its payload — which
// no CRC covers — is caught too. It returns a *CorruptionError naming
// the damaged sections, the ones DecompressBestEffort would name. v1
// streams carry no checksums; they are walked and inflated (the zlib
// layer's own framing is the only integrity signal available) and the
// first failure is returned as is. Payloads are not dequantized, so a
// nil from Verify means every section Decompress reads is intact as
// written, not that a faulty writer wrote decodable sections.
func Verify(buf []byte) error {
	d, err := newDecoder(buf, 0)
	if err != nil {
		return err
	}
	if d.version == formatV1 {
		if err := d.dataErr(); err != nil {
			return err
		}
		// A Background context never cancels, so only errs can fail.
		raw, errs, _ := d.inflate(context.Background(), 0, d.ndata())
		release(raw)
		return firstErr(errs)
	}
	raw, bad, _ := d.scan()
	release(raw)
	if len(bad) == 0 {
		return nil
	}
	return &CorruptionError{Sections: bad, StoredRank: d.h.k}
}

// DecompressBestEffort decompresses buf, degrading gracefully when parts
// of a v2 stream are damaged: as long as the header, the means (and
// scales, when standardized) and a leading run of rank sections pass
// their checksums and inflate, it reconstructs from the highest intact
// rank — the progressive-decode property of rank-ordered PCA sections —
// and returns the partial data together with a *CorruptionError naming
// what Verify names and the rank recovered. A fully intact stream
// returns a nil error; an unrecoverable one returns nil data and the
// error. v1 streams have no per-section checksums, so they either decode
// fully or fail.
func DecompressBestEffort(buf []byte, workers int) ([]float64, []int, error) {
	d, err := newDecoder(buf, workers)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	if d.version == formatV1 {
		return Decompress(ctx, buf, workers, 0, nil)
	}
	raw, bad, rank := d.scan()
	defer release(raw)
	if rank == 0 {
		return nil, nil, &CorruptionError{Sections: bad, StoredRank: d.h.k}
	}
	// A section that passed its checksum but fails to decode points at a
	// malformed stream, not recoverable storage damage.
	if err := d.decode(ctx, raw, rank); err != nil {
		return nil, nil, err
	}
	data, err := d.recompose(rank, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(bad) == 0 {
		return data, d.h.dims, nil
	}
	return data, d.h.dims, &CorruptionError{Sections: bad, RecoveredRank: rank, StoredRank: d.h.k}
}
