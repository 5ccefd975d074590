package dpz

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"dpz/internal/archive"
	"dpz/internal/core"
	"dpz/internal/parallel"
	"dpz/internal/retrieval"
)

// Tiled compression: fields too large to hold in memory are compressed in
// slabs of leading-dimension rows, each slab an independent DPZ stream
// inside one archive container. Decompression can stream slab by slab or
// fetch a single slab — the out-of-core workflow the paper's
// exabyte-scale motivation implies.

// tiledMetaName is the archive entry holding the tiling description.
const tiledMetaName = "_dpz_tiled_meta"

// tiledIndexName is the archive entry holding the consolidated retrieval
// index: one Summary per tile, in tile order, in the same DPZI payload
// encoding each tile's own stream carries. Readers fall back to
// assembling the index from the per-tile streams when this entry is
// missing or damaged.
const tiledIndexName = "_dpz_index"

// tiledMeta describes how a field was split.
type tiledMeta struct {
	Dims     []int `json:"dims"`
	TileRows int   `json:"tile_rows"`
	Tiles    int   `json:"tiles"`
}

// tileName formats the archive entry name of slab i.
func tileName(i int) string { return fmt.Sprintf("tile-%06d", i) }

// tilePrefetch is how many tiles the pipeline source reads ahead of the
// slowest in-flight compression: while tile i is being written and tiles
// up to i+W are compressing, tiles up to i+W+tilePrefetch are already
// read off the input stream.
const tilePrefetch = 2

// CompressTiled reads a raw little-endian float32 field (the SDRBench
// layout) from r and writes a tiled DPZ archive to w. The field's leading
// dimension is split into slabs of tileRows rows (the last slab may be
// shorter); each slab is compressed independently with opts, so peak
// memory is bounded by the in-flight slab count.
//
// Tiles flow through a bounded three-stage pipeline: a reader goroutine
// streams slabs off r, up to opts.Workers tiles compress concurrently,
// and finished streams are appended to the archive strictly in tile
// order — so the output archive is byte-identical to the serial path
// for every worker count. Returns per-slab stats in tile order.
func CompressTiled(r io.Reader, dims []int, tileRows int, opts Options, w io.Writer) ([]Stats, error) {
	return CompressTiledContext(context.Background(), r, dims, tileRows, opts, w)
}

// CompressTiledContext is CompressTiled with cooperative cancellation: a
// cancelled ctx stops the tile reader, abandons in-flight tile
// compressions mid-pipeline, and returns ctx.Err(). Tiles already
// appended stay in w — the output is an incomplete archive the caller
// should discard.
func CompressTiledContext(ctx context.Context, r io.Reader, dims []int, tileRows int, opts Options, w io.Writer) ([]Stats, error) {
	if len(dims) < 1 {
		return nil, fmt.Errorf("dpz: tiled compression needs at least 1 dimension")
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("dpz: non-positive dimension in %v", dims)
		}
	}
	if tileRows <= 0 || tileRows > dims[0] {
		return nil, fmt.Errorf("dpz: tileRows %d out of [1,%d]", tileRows, dims[0])
	}
	rowValues := 1
	for _, d := range dims[1:] {
		rowValues *= d
	}
	tiles := (dims[0] + tileRows - 1) / tileRows

	aw, err := archive.NewWriter(w)
	if err != nil {
		return nil, err
	}
	meta, err := json.Marshal(tiledMeta{Dims: dims, TileRows: tileRows, Tiles: tiles})
	if err != nil {
		return nil, fmt.Errorf("dpz: %w", err)
	}
	if err := aw.Append(tiledMetaName, meta); err != nil {
		return nil, err
	}

	// The source reads each slab off r and widens it to float64 (exact
	// for float32); the sink appends the streams in tile order and
	// collects each tile's summary for the consolidated index.
	br := bufio.NewReaderSize(r, 1<<20)
	raw := make([]byte, 4*tileRows*rowValues)
	read := func(t int) (archiveStream, error) {
		rows := min(tileRows, dims[0]-t*tileRows)
		buf := raw[:4*rows*rowValues]
		if _, err := io.ReadFull(br, buf); err != nil {
			return archiveStream{}, fmt.Errorf("dpz: reading tile %d: %w", t, err)
		}
		slab := make([]float64, rows*rowValues)
		for i := range slab {
			slab[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		return archiveStream{label: fmt.Sprintf("tile %d", t), data: slab, dims: append([]int{rows}, dims[1:]...)}, nil
	}
	tileSums := make([]retrieval.Summary, 0, tiles)
	sink := func(t int, stream []byte) error {
		if err := aw.Append(tileName(t), stream); err != nil {
			return err
		}
		if !opts.NoIndex {
			if ix, err := core.ReadIndex(stream); err == nil && len(ix.Tiles) == 1 {
				tileSums = append(tileSums, ix.Tiles[0])
			}
		}
		return nil
	}
	statsOut, err := compressStreams(ctx, tiles, tilePrefetch, opts, read, sink)
	if err != nil {
		return nil, err
	}
	// One consolidated index entry lets queries touch a single archive
	// entry instead of every tile stream. Written only when every tile
	// contributed a summary, so its tile numbering always matches.
	if !opts.NoIndex && len(tileSums) == tiles {
		if err := aw.Append(tiledIndexName, retrieval.EncodePayload(tileSums)); err != nil {
			return nil, err
		}
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	return statsOut, nil
}

// TiledReader provides slab-level access to a tiled archive.
type TiledReader struct {
	ar       *ArchiveReader
	dims     []int
	tileRows int
	tiles    int
}

// OpenTiled parses a tiled archive of the given total size.
func OpenTiled(r io.ReaderAt, size int64) (*TiledReader, error) {
	return OpenTiledOptions(r, size, ArchiveOptions{})
}

// OpenTiledOptions is OpenTiled with archive options — pass AllowRecovery
// to read a tiled archive with a torn tail. The consolidated index entry
// is written last, so it is typically the first casualty of a torn write;
// TiledReader.Index then reassembles the index from the recovered tile
// streams.
func OpenTiledOptions(r io.ReaderAt, size int64, o ArchiveOptions) (*TiledReader, error) {
	ar, err := OpenArchiveOptions(r, size, o)
	if err != nil {
		return nil, err
	}
	raw, err := ar.Stream(tiledMetaName)
	if err != nil {
		return nil, fmt.Errorf("dpz: not a tiled archive: %w", err)
	}
	var meta tiledMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("dpz: corrupt tiled metadata: %w", err)
	}
	if len(meta.Dims) < 1 || meta.TileRows < 1 || meta.Tiles < 1 {
		return nil, fmt.Errorf("dpz: implausible tiled metadata %+v", meta)
	}
	want := (meta.Dims[0] + meta.TileRows - 1) / meta.TileRows
	if want != meta.Tiles {
		return nil, fmt.Errorf("dpz: tiled metadata inconsistent: %d tiles for %v/%d",
			meta.Tiles, meta.Dims, meta.TileRows)
	}
	return &TiledReader{ar: ar, dims: meta.Dims, tileRows: meta.TileRows, tiles: meta.Tiles}, nil
}

// Dims returns the full field dimensions.
func (t *TiledReader) Dims() []int {
	out := make([]int, len(t.dims))
	copy(out, t.dims)
	return out
}

// Tiles returns the slab count.
func (t *TiledReader) Tiles() int { return t.tiles }

// TileRows returns the leading-dimension rows per slab (the last slab may
// hold fewer).
func (t *TiledReader) TileRows() int { return t.tileRows }

// Index returns the archive's retrieval index: one TileSummary per slab,
// in tile order. It reads the consolidated _dpz_index entry when present
// and intact; otherwise it assembles the index from each tile stream's
// own trailing index section — so an archive that lost only the
// consolidated entry (e.g. after Recover) still answers queries. Archives
// written with NoIndex (or by pre-index releases) return an error
// wrapping ErrNoIndex. No data section is inflated either way.
func (t *TiledReader) Index() (*Index, error) {
	if raw, err := t.ar.Stream(tiledIndexName); err == nil {
		if ix, err := retrieval.DecodePayload(raw); err == nil && len(ix.Tiles) == t.tiles {
			return ix, nil
		}
		// Damaged or inconsistent consolidated entry: fall through to the
		// per-tile assembly rather than answering from bad metadata.
	}
	tilesum := make([]retrieval.Summary, t.tiles)
	for i := 0; i < t.tiles; i++ {
		payload, err := t.ar.Stream(tileName(i))
		if err != nil {
			return nil, &retrieval.CorruptError{Reason: fmt.Sprintf("tile %d unreadable: %v", i, err)}
		}
		ix, err := core.ReadIndex(payload)
		if err != nil {
			return nil, err
		}
		if len(ix.Tiles) != 1 {
			return nil, &retrieval.CorruptError{Reason: fmt.Sprintf("tile %d carries %d summaries", i, len(ix.Tiles))}
		}
		tilesum[i] = ix.Tiles[0]
	}
	return &retrieval.Index{Tiles: tilesum}, nil
}

// Tile decompresses slab i, returning its values and slab dims.
func (t *TiledReader) Tile(i int) ([]float64, []int, error) {
	if i < 0 || i >= t.tiles {
		return nil, nil, fmt.Errorf("dpz: tile %d out of [0,%d)", i, t.tiles)
	}
	payload, err := t.ar.Stream(tileName(i))
	if err != nil {
		return nil, nil, err
	}
	return DecompressFloat64(payload)
}

// ReadAll decompresses every slab into one float64 field, fetching and
// decoding tiles in parallel with the default worker count.
func (t *TiledReader) ReadAll() ([]float64, []int, error) {
	return t.ReadAllParallel(0)
}

// ReadAllParallel is ReadAll with an explicit worker bound (0 =
// GOMAXPROCS). Tile offsets in the output are fixed by the metadata, so
// each worker decompresses into a disjoint range and the result is
// independent of the worker count. The archive reader serves concurrent
// random-access reads, so this also parallelizes the payload fetch and
// checksum verification.
func (t *TiledReader) ReadAllParallel(workers int) ([]float64, []int, error) {
	total := 1
	for _, d := range t.dims {
		total *= d
	}
	rowValues := 1
	for _, d := range t.dims[1:] {
		rowValues *= d
	}
	out := make([]float64, total)
	errs := make([]error, t.tiles)
	parallel.For(t.tiles, workers, func(i int) {
		slab, slabDims, err := t.Tile(i)
		if err != nil {
			errs[i] = err
			return
		}
		// Each slab must be shape-consistent with the metadata.
		wantRows := t.tileRows
		if i == t.tiles-1 {
			wantRows = t.dims[0] - i*t.tileRows
		}
		if slabDims[0] != wantRows {
			errs[i] = fmt.Errorf("dpz: tile %d has %d rows, want %d", i, slabDims[0], wantRows)
			return
		}
		off := i * t.tileRows * rowValues
		if len(slab) != wantRows*rowValues || off+len(slab) > total {
			errs[i] = fmt.Errorf("dpz: tile %d has %d values, want %d", i, len(slab), wantRows*rowValues)
			return
		}
		copy(out[off:], slab)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, t.Dims(), nil
}
