package core

import (
	"fmt"

	"dpz/internal/retrieval"
	"dpz/internal/stats"
)

// SectionInfo describes one container section without decoding it.
type SectionInfo struct {
	// Name labels the section ("means", "rank 3 scores", ...).
	Name string `json:"name"`
	// RawBytes is the section's declared pre-zlib size.
	RawBytes int `json:"raw_bytes"`
	// CompressedBytes is the zlib payload size inside the stream.
	CompressedBytes int `json:"compressed_bytes"`
	// Sharded reports whether the payload uses the parallel shard framing.
	Sharded bool `json:"sharded,omitempty"`
	// CRC is the stored CRC-32C of the payload (v2 streams only).
	CRC uint32 `json:"crc32c,omitempty"`
}

// StreamInfo is the metadata of a DPZ stream, recovered from the header
// and section table alone — no section is inflated and no data is
// reconstructed, so inspection is cheap even for huge streams. It is the
// one metadata-rendering path shared by `dpzstat -json` and the dpzd
// `/v1/stat` endpoint.
type StreamInfo struct {
	// Version is the container format version (1, 2 or 3).
	Version int `json:"version"`
	// Dims are the logical dimensions recorded at compression time.
	Dims []int `json:"dims"`
	// Values is the original value count (the product of Dims).
	Values int `json:"values"`
	// Blocks (M) and BlockLen (N) give the Stage 1 decomposition shape.
	Blocks   int `json:"blocks"`
	BlockLen int `json:"block_len"`
	// Components is k, the number of stored principal components.
	Components int `json:"components"`
	// IndexWidth is the Stage 3 bin-index width in bytes (1 or 2).
	IndexWidth int `json:"index_width"`
	// Transform names the Stage 1 transform: "dct", "dct2d", "haar", "none".
	Transform string `json:"transform"`
	// Standardized reports pre-PCA feature standardization.
	Standardized bool `json:"standardized"`
	// RawProjection reports the un-budgeted float32 projection ablation.
	RawProjection bool `json:"raw_projection,omitempty"`
	// StreamBytes is the total container size.
	StreamBytes int `json:"stream_bytes"`
	// PayloadRawBytes sums the declared pre-zlib section sizes.
	PayloadRawBytes int `json:"payload_raw_bytes"`
	// CompressionRatio is 4·Values / StreamBytes (the float32 basis used
	// throughout the evaluation) and BitRate its bits-per-value form.
	CompressionRatio float64 `json:"compression_ratio"`
	BitRate          float64 `json:"bit_rate"`
	// HasIndex reports a decodable v3 retrieval-index section. A v3
	// stream whose index payload is damaged inspects as HasIndex=false —
	// the same "no index" degradation the decode path applies.
	HasIndex bool `json:"has_index,omitempty"`
	// IndexTiles is the number of per-tile summaries the index holds.
	IndexTiles int `json:"index_tiles,omitempty"`
	// RankCumulativeEnergy[r] is the fraction of total coefficient energy
	// the leading r+1 ranks carry (summed across tiles), so users can pick
	// a preview rank without decoding anything.
	RankCumulativeEnergy []float64 `json:"rank_cumulative_energy,omitempty"`
	// Sections lists every container section in stream order.
	Sections []SectionInfo `json:"sections"`
}

// Inspect parses a stream's header and section table into a StreamInfo.
// It validates structure (magic, header plausibility, section framing and
// the v2 header CRC) but does not checksum or inflate section payloads;
// use Verify for an integrity scan.
func Inspect(buf []byte) (*StreamInfo, error) {
	st, err := walk(buf)
	if err != nil {
		return nil, err
	}
	h := st.h
	info := &StreamInfo{
		Version:       st.version,
		Dims:          append([]int(nil), h.dims...),
		Values:        h.origLen,
		Blocks:        h.m,
		BlockLen:      h.n,
		Components:    h.k,
		IndexWidth:    int(h.width),
		Standardized:  h.flags&flagStandardized != 0,
		RawProjection: h.flags&flagRawProj != 0,
		StreamBytes:   len(buf),
	}
	switch {
	case h.flags&flagNoDCT != 0:
		info.Transform = "none"
	case h.flags&flag2DDCT != 0:
		info.Transform = "dct2d"
	case h.flags&flagWavelet != 0:
		info.Transform = "haar"
	default:
		info.Transform = "dct"
	}

	info.Sections = make([]SectionInfo, 0, len(st.secs))
	for i, sec := range st.secs {
		if sec.err != nil {
			return nil, sec.err
		}
		info.Sections = append(info.Sections, SectionInfo{
			Name:            st.sectionName(i),
			RawBytes:        sec.rawLen,
			CompressedBytes: len(sec.comp),
			Sharded:         isSharded(sec.comp),
			CRC:             sec.crc,
		})
		info.PayloadRawBytes += sec.rawLen
		if i == st.ndata() && sec.rawLen == len(sec.comp) {
			// Decode the raw index payload for the summary fields; damage
			// degrades to "no index" rather than failing inspection.
			if ix, err := retrieval.DecodePayload(sec.comp); err == nil {
				info.HasIndex = true
				info.IndexTiles = len(ix.Tiles)
				info.RankCumulativeEnergy = cumulativeEnergy(ix)
			}
		}
	}
	if st.trailing != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes", st.trailing)
	}
	info.CompressionRatio = stats.CompressionRatio(4*info.Values, len(buf))
	info.BitRate = stats.BitRate(info.CompressionRatio, 32)
	return info, nil
}

// cumulativeEnergy sums the per-rank energies across every tile of an
// index and returns the cumulative fraction carried by each rank prefix.
func cumulativeEnergy(ix *retrieval.Index) []float64 {
	var ranks int
	for i := range ix.Tiles {
		if n := len(ix.Tiles[i].RankEnergy); n > ranks {
			ranks = n
		}
	}
	if ranks == 0 {
		return nil
	}
	sum := make([]float64, ranks)
	var total float64
	for i := range ix.Tiles {
		for j, e := range ix.Tiles[i].RankEnergy {
			sum[j] += e
			total += e
		}
	}
	if total <= 0 {
		return nil
	}
	cum := make([]float64, ranks)
	run := 0.0
	for j, e := range sum {
		run += e
		cum[j] = run / total
	}
	return cum
}
