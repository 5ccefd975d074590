package core

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"io"
	"math"
	"sync"

	"dpz/internal/parallel"
	"dpz/internal/scratch"
)

// This file is the zlib add-on stage's codec: per unit, stored blocks
// when an entropy estimate says deflate cannot shrink it and DPZ's own
// deflate writer (deflate.go) otherwise, a pooled compress/zlib reader
// for decoding, and a shard framing that splits large sections into
// independently-compressed chunks so a single big section can use every
// worker. Shard boundaries depend only on the raw section length, never
// on the worker count, so streams are byte-identical for any parallelism.

// zrPool pools zlib readers (all readers reset identically).
var zrPool sync.Pool

// packUnit zlib-encodes one deflate unit (a section or a shard): stored
// blocks when an entropy estimate says deflate cannot shrink it (see
// entropyBytes), deflateUnit at level otherwise, which itself falls back
// to stored blocks when deflating saves too little. Any zlib reader
// inflates either form.
func packUnit(buf []byte, level int) []byte {
	if len(buf) > 0 && entropyBytes(buf) >= float64(len(buf)) {
		return storedZlib(buf)
	}
	return deflateUnit(buf, level)
}

// entropyBytes is the size an ideal order-0 code would give buf, plus a
// quarter byte per distinct byte value for its code table:
// Σ c_i·log2(n/c_i)/8 + d/4 over the byte counts c_i, with d values used.
// When it reaches len(buf), deflate's Huffman stage has nothing to gain;
// on the bit-packed quantizer codes of projection sections, the common
// case, LZ77 finds no matches either, and deflateUnit would end in
// stored blocks after building codes it cannot use. Repetitive data (a
// constant field's columns) has few distinct bytes and stays on deflate.
func entropyBytes(buf []byte) float64 {
	if len(buf) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range buf {
		counts[b]++
	}
	// Σ c_i·log2(n/c_i) = n·log2(n) − Σ c_i·log2(c_i); the second sum
	// reads small counts from a table, which saves a logarithm per
	// distinct byte on the small sections of a stream.
	var sum float64
	distinct := 0
	for _, c := range counts {
		switch {
		case c == 0:
			continue
		case c < len(cLog2c):
			sum += cLog2c[c]
		default:
			sum += float64(c) * math.Log2(float64(c))
		}
		distinct++
	}
	n := float64(len(buf))
	return (n*math.Log2(n)-sum)/8 + float64(distinct)/4
}

// cLog2c[c] is c·log2(c) for the byte counts entropyBytes meets most.
var cLog2c = func() []float64 {
	t := make([]float64, 1<<12)
	for c := 2; c < len(t); c++ {
		t[c] = float64(c) * math.Log2(float64(c))
	}
	return t
}()

// maxStoredBlock is the largest payload of one stored deflate block.
const maxStoredBlock = 1<<16 - 1

// storedZlib wraps buf in an RFC 1950 zlib stream of stored (BTYPE=00)
// deflate blocks: header 0x78 0x01, blocks of at most maxStoredBlock
// bytes (the last one final), and the big-endian Adler-32 of buf. It is
// len(buf) + 6 + 5·max(1, ⌈len(buf)/65535⌉) bytes.
func storedZlib(buf []byte) []byte {
	nblk := max(1, (len(buf)+maxStoredBlock-1)/maxStoredBlock)
	out := make([]byte, 0, storedZlibLen(len(buf)))
	out = append(out, 0x78, 0x01)
	for i := 0; i < nblk; i++ {
		blk := buf[i*maxStoredBlock : min((i+1)*maxStoredBlock, len(buf))]
		var final byte
		if i == nblk-1 {
			final = 1
		}
		n := uint16(len(blk))
		out = append(out, final, byte(n), byte(n>>8), byte(^n), byte(^n>>8))
		out = append(out, blk...)
	}
	return binary.BigEndian.AppendUint32(out, adler32.Checksum(buf))
}

// storedZlibLen is the length of storedZlib's output for n bytes.
func storedZlibLen(n int) int {
	return n + 6 + 5*max(1, (n+maxStoredBlock-1)/maxStoredBlock)
}

// inflateInto decompresses a zlib stream into dst, which must be exactly
// the declared raw length; a shorter or longer stream is an error.
func inflateInto(dst, buf []byte) error {
	br := bytes.NewReader(buf)
	var r io.ReadCloser
	if v := zrPool.Get(); v != nil {
		r = v.(io.ReadCloser)
		if err := r.(zlib.Resetter).Reset(br, nil); err != nil {
			return fmt.Errorf("core: zlib open: %w", err)
		}
	} else {
		var err error
		r, err = zlib.NewReader(br)
		if err != nil {
			return fmt.Errorf("core: zlib open: %w", err)
		}
	}
	defer zrPool.Put(r)
	defer r.Close()
	if _, err := io.ReadFull(r, dst); err != nil {
		return fmt.Errorf("core: zlib read: %w", err)
	}
	// The probe past the declared length both rejects over-long streams
	// and forces the reader across the final block so the adler32 trailer
	// is actually verified.
	var probe [1]byte
	if n, err := r.Read(probe[:]); n != 0 {
		return fmt.Errorf("core: zlib stream longer than declared %d bytes", len(dst))
	} else if err != io.EOF {
		return fmt.Errorf("core: zlib trailer: %w", err)
	}
	return nil
}

// inflate decompresses a zlib stream, verifying the expected raw length.
// The output comes from the scratch byte pool: ownership transfers to the
// caller, who may hand it back via scratch.PutBytes (see release)
// once nothing aliases it — or simply let it be collected.
func inflate(buf []byte, rawLen int) ([]byte, error) {
	out := scratch.Bytes(rawLen)
	if err := inflateInto(out, buf); err != nil {
		return nil, err
	}
	return out, nil
}

// Shard framing. A section payload normally is a single zlib stream; a
// section whose raw size exceeds shardRawSize is instead stored as
//
//	magic  [4]byte  {0xFF, 'D', 'P', 'S'}
//	nshard u32
//	per shard: rawLen u64, compLen u64
//	concatenated zlib streams
//
// The magic's first byte has an invalid zlib CM nibble, so the two
// layouts cannot be confused. The section CRC covers the whole payload
// including the frame. Shards are fixed shardRawSize slices of the raw
// section (last one short), so the encoding is worker-count independent.
var shardMagic = [4]byte{0xFF, 'D', 'P', 'S'}

// shardRawSize is the raw bytes per shard; sections at or below it stay
// a single plain zlib stream. 256 KiB keeps the deflate-ratio loss from
// dictionary resets under ~1% while giving big sections enough shards to
// spread across workers.
const shardRawSize = 256 << 10

// maxShards bounds the shard count a decoder will accept; combined with
// the section-level rawLen guard it keeps corrupt frames from forcing
// huge table allocations.
const maxShards = 1 << 20

// isSharded reports whether a section payload uses the shard framing.
func isSharded(payload []byte) bool {
	return len(payload) >= 4 && bytes.Equal(payload[:4], shardMagic[:])
}

// shardSpan is one shard's slice of a raw section.
type shardSpan struct{ off, end int }

// shardSpans returns the fixed shard boundaries for a raw section size,
// or nil if the section is stored unsharded.
func shardSpans(rawLen int) []shardSpan {
	if rawLen <= shardRawSize {
		return nil
	}
	n := (rawLen + shardRawSize - 1) / shardRawSize
	spans := make([]shardSpan, n)
	for i := range spans {
		off := i * shardRawSize
		end := min(off+shardRawSize, rawLen)
		spans[i] = shardSpan{off, end}
	}
	return spans
}

// assembleShards frames pre-deflated shards into a section payload.
func assembleShards(spans []shardSpan, comp [][]byte) []byte {
	total := 8 + 16*len(spans)
	for _, c := range comp {
		total += len(c)
	}
	out := make([]byte, 0, total)
	out = append(out, shardMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(spans)))
	for i, s := range spans {
		out = binary.LittleEndian.AppendUint64(out, uint64(s.end-s.off))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(comp[i])))
	}
	for _, c := range comp {
		out = append(out, c...)
	}
	return out
}

// inflateSection decompresses a section payload (plain or sharded),
// verifying it reconstructs exactly rawLen bytes. Shards inflate in
// parallel into disjoint slices of the output; a cancelled ctx aborts
// the fan-out so cancellation reaches shard granularity (dpzlint's
// ctxflow analyzer keeps this path on the Ctx variant).
func inflateSection(ctx context.Context, payload []byte, rawLen, workers int) ([]byte, error) {
	if !isSharded(payload) {
		return inflate(payload, rawLen)
	}
	if len(payload) < 8 {
		return nil, fmt.Errorf("core: truncated shard table")
	}
	nshard := int(binary.LittleEndian.Uint32(payload[4:]))
	if nshard < 1 || nshard > maxShards {
		return nil, fmt.Errorf("core: implausible shard count %d", nshard)
	}
	tbl := payload[8:]
	if len(tbl) < 16*nshard {
		return nil, fmt.Errorf("core: shard table needs %d bytes, have %d", 16*nshard, len(tbl))
	}
	data := tbl[16*nshard:]
	type shard struct {
		dstOff, dstLen int
		srcOff, srcLen int
	}
	shards := make([]shard, nshard)
	rawOff, compOff := 0, 0
	for i := range shards {
		r := binary.LittleEndian.Uint64(tbl[16*i:])
		c := binary.LittleEndian.Uint64(tbl[16*i+8:])
		if r > uint64(rawLen-rawOff) || c > uint64(len(data)-compOff) {
			return nil, fmt.Errorf("core: shard %d overruns section (%d raw, %d comp)", i, r, c)
		}
		shards[i] = shard{rawOff, int(r), compOff, int(c)}
		rawOff += int(r)
		compOff += int(c)
	}
	if rawOff != rawLen {
		return nil, fmt.Errorf("core: shards cover %d of %d raw bytes", rawOff, rawLen)
	}
	if compOff != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes after shards", len(data)-compOff)
	}
	out := scratch.Bytes(rawLen)
	errs := make([]error, nshard)
	if err := parallel.ForCtx(ctx, nshard, workers, func(i int) {
		s := shards[i]
		errs[i] = inflateInto(out[s.dstOff:s.dstOff+s.dstLen], data[s.srcOff:s.srcOff+s.srcLen])
	}); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	return out, nil
}
