package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"dpz/internal/integrity"
	"dpz/internal/parallel"
)

// Container format ("DPZ1" magic, version byte 2):
//
//	magic   [4]byte  "DPZ1"
//	version u8       = 2
//	flags   u8       bit0: standardized
//	ndims   u8
//	width   u8       quantization index width (1 or 2)
//	dims    [ndims]u64
//	origLen u64      values before padding
//	m, n, k u64      block count, block length, kept components
//	nsec    u16      section count
//	hdrCRC  u32      CRC-32C of every byte above
//	per section: rawLen u64, compLen u64, crc u32 (CRC-32C of the zlib
//	             payload), zlib payload
//
// A zlib payload is either deflated or, when an entropy estimate says
// deflate cannot shrink it, a run of stored blocks (see packUnit); any
// zlib reader inflates both, so the decoder does not tell them apart.
//
// v2 sections in order: feature means (M float32), feature scales
// (M float32, only when standardized), then per component j = 0..K-1 a
// quantized-score stream (quant.Marshal over that component's N scores)
// followed by its packed projection column. Rank regions are therefore
// independently checksummed and rank-ordered: a stream whose tail is
// damaged still yields a best-effort reconstruction from the leading
// intact components (see DecompressBestEffort).
//
// Version 3 is v2 plus exactly one trailing retrieval-index section (the
// "DPZI" payload of internal/retrieval) holding per-tile summaries for
// compressed-domain queries. The index is stored raw — compLen equals
// rawLen, no zlib — so index-only queries never inflate anything. Its
// section header carries the usual CRC (checked by Verify), but the data
// decode path ignores index damage entirely: a v3 stream with a ruined
// index decodes exactly like the equivalent v2 stream, and the payload's
// own inner CRC protects queries. v2 streams remain byte-identically
// readable.
//
// Version 1 (the seed format) remains readable: one quant stream over
// all N·K scores, the whole packed M×K projection, means, and optional
// scales — no checksums, nsec as u8. walk reads every version's section
// table, and the decoder dispatches on the version byte.

var magic = [4]byte{'D', 'P', 'Z', '1'}

const (
	formatV1      = 1
	formatV2      = 2
	formatV3      = 3
	formatVersion = formatV3
)

const (
	flagStandardized = 1 << 0
	flagNoDCT        = 1 << 1
	flagRawProj      = 1 << 2
	flag2DDCT        = 1 << 3
	flagWavelet      = 1 << 4
)

// blockPadSlack bounds how much larger than the data the padded block
// matrix may legitimately be (power-of-two padding plus rounding).
const blockPadSlack = 64

// header is the parsed fixed part of the container.
type header struct {
	flags   uint8
	width   uint8
	dims    []int
	origLen int
	m, n, k int
}

// float32Bytes encodes a float64 slice as little-endian float32.
func float32Bytes(x []float64) []byte {
	out := make([]byte, 4*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(v)))
	}
	return out
}

// float32FromBytes decodes little-endian float32 into float64.
func float32FromBytes(buf []byte) ([]float64, error) {
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("core: float32 payload length %d not a multiple of 4", len(buf))
	}
	out := make([]float64, len(buf)/4)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
	}
	return out, nil
}

// float32IntoFloats decodes little-endian float32 into dst, requiring the
// payload to hold exactly len(dst) values.
func float32IntoFloats(dst []float64, buf []byte) error {
	if len(buf) != 4*len(dst) {
		return fmt.Errorf("core: float32 payload %d bytes, want %d values", len(buf), len(dst))
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
	}
	return nil
}

// maxHeaderValue bounds any u64 header field (dims, lengths, shape): far
// above any real stream, far below anything that could overflow int math
// downstream. Compared in uint64 so the guard itself cannot overflow on
// 32-bit platforms.
const maxHeaderValue = uint64(math.MaxInt32) * 64

// sectionLayout returns the v2 data-section count for a header: means,
// optional scales, then (scores, projection) per component. v3 streams
// hold the same data sections plus one trailing index section.
func sectionLayout(h header) int {
	n := 1 + 2*h.k
	if h.flags&flagStandardized != 0 {
		n++
	}
	return n
}

// sectionCount returns the total section count for a header at a given
// format version.
func sectionCount(h header, version int) int {
	n := sectionLayout(h)
	if version >= formatV3 {
		n++
	}
	return n
}

// v2SectionName labels section index i of a v2 stream for corruption
// reports ("means", "scales", "rank 3 scores", "rank 3 projection").
func v2SectionName(h header, i int) string {
	std := h.flags&flagStandardized != 0
	switch {
	case i == sectionLayout(h): // the trailing v3 index section
		return "index"
	case i == 0:
		return "means"
	case std && i == 1:
		return "scales"
	}
	base := 1
	if std {
		base = 2
	}
	j := i - base
	if j%2 == 0 {
		return fmt.Sprintf("rank %d scores", j/2)
	}
	return fmt.Sprintf("rank %d projection", j/2)
}

// encodeContainer assembles the container byte stream. scores and proj
// hold one raw (pre-zlib) section per stored component; scales is nil
// when the stream is not standardized. A non-nil index payload makes the
// stream format v3 with the index appended as one raw (uncompressed)
// trailing section; a nil index yields a v2 stream byte-identical to
// what earlier writers produced. Sections are zlib-encoded in parallel
// (large ones split further into shards — see shardSpans; each unit
// deflated or stored — see packUnit) but are assembled in their fixed
// order, so the stream is byte-identical for every worker count. It
// returns the stream and the total pre-zlib payload size (for the
// zlib-stage CR accounting). A cancelled ctx aborts the zlib fan-out and
// returns ctx.Err().
func encodeContainer(ctx context.Context, h header, scores, proj [][]byte, means, scales, index []byte, level, workers int) ([]byte, int, error) {
	if len(scores) != h.k || len(proj) != h.k {
		panic(fmt.Sprintf("core: %d score / %d projection sections for K=%d", len(scores), len(proj), h.k))
	}
	secs := make([][]byte, 0, sectionLayout(h))
	secs = append(secs, means)
	if h.flags&flagStandardized != 0 {
		secs = append(secs, scales)
	}
	for j := 0; j < h.k; j++ {
		secs = append(secs, scores[j], proj[j])
	}

	// Flatten all (section, shard) deflate units into one job list so a
	// stream with one huge section and many tiny ones still load-balances.
	type job struct{ sec, shard int }
	var jobs []job
	spans := make([][]shardSpan, len(secs))
	for s, sec := range secs {
		spans[s] = shardSpans(len(sec))
		if spans[s] == nil {
			jobs = append(jobs, job{s, -1})
			continue
		}
		for i := range spans[s] {
			jobs = append(jobs, job{s, i})
		}
	}
	comp := make([][][]byte, len(secs))
	for s := range comp {
		n := len(spans[s])
		if n == 0 {
			n = 1
		}
		comp[s] = make([][]byte, n)
	}
	if err := parallel.ForCtx(ctx, len(jobs), workers, func(i int) {
		j := jobs[i]
		sec := secs[j.sec]
		if j.shard < 0 {
			comp[j.sec][0] = packUnit(sec, level)
			return
		}
		sp := spans[j.sec][j.shard]
		comp[j.sec][j.shard] = packUnit(sec[sp.off:sp.end], level)
	}); err != nil {
		return nil, 0, err
	}

	payloads := make([][]byte, len(secs))
	for s := range secs {
		if spans[s] == nil {
			payloads[s] = comp[s][0]
		} else {
			payloads[s] = assembleShards(spans[s], comp[s])
		}
	}
	out, rawTotal := writeContainer(h, secs, payloads, index)
	return out, rawTotal, nil
}

// writeContainer lays out the stream: the fixed header, then each data
// section's header and zlib payload (secs[s] is the raw section that
// payloads[s] encodes), then the raw index section when index is
// non-nil. It returns the stream and the total raw section size. Every
// length is known here, so the stream is allocated once.
func writeContainer(h header, secs, payloads [][]byte, index []byte) ([]byte, int) {
	version := formatV2
	if index != nil {
		version = formatV3
	}
	const secHdr = 20 // rawLen u64, compLen u64, crc u32
	// magic..width, then dims and origLen/m/n/k as u64, nsec and hdrCRC.
	size := 8 + 8*(len(h.dims)+4) + 6
	for _, p := range payloads {
		size += secHdr + len(p)
	}
	if index != nil {
		size += secHdr + len(index)
	}
	out := make([]byte, 0, size)
	out = append(out, magic[:]...)
	out = append(out, uint8(version), h.flags, uint8(len(h.dims)), h.width)
	put := func(v int) { out = binary.LittleEndian.AppendUint64(out, uint64(v)) }
	for _, d := range h.dims {
		put(d)
	}
	put(h.origLen)
	put(h.m)
	put(h.n)
	put(h.k)
	out = binary.LittleEndian.AppendUint16(out, uint16(sectionCount(h, version)))
	out = binary.LittleEndian.AppendUint32(out, integrity.Checksum(out))

	rawTotal := 0
	section := func(rawLen int, payload []byte) {
		rawTotal += rawLen
		put(rawLen)
		put(len(payload))
		out = binary.LittleEndian.AppendUint32(out, integrity.Checksum(payload))
		out = append(out, payload...)
	}
	for s, sec := range secs {
		section(len(sec), payloads[s])
	}
	if index != nil {
		// The index travels raw (compLen == rawLen): compressed-domain
		// queries read it without inflating anything.
		section(len(index), index)
	}
	return out, rawTotal
}

// parseFixedHeader reads the shared fixed header (magic through K) and
// returns the header, the stream version and the offset just past K.
func parseFixedHeader(buf []byte) (header, int, int, error) {
	var h header
	if len(buf) < 8 {
		return h, 0, 0, fmt.Errorf("core: stream too short (%d bytes)", len(buf))
	}
	if !bytes.Equal(buf[:4], magic[:]) {
		return h, 0, 0, fmt.Errorf("core: bad magic %q", buf[:4])
	}
	version := int(buf[4])
	if version != formatV1 && version != formatV2 && version != formatV3 {
		return h, 0, 0, fmt.Errorf("core: unsupported version %d", version)
	}
	h.flags = buf[5]
	ndims := int(buf[6])
	h.width = buf[7]
	pos := 8
	rd := func() (int, error) {
		if pos+8 > len(buf) {
			return 0, fmt.Errorf("core: truncated header at offset %d", pos)
		}
		v := binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
		// Compare in uint64: the guard itself must not overflow, and any
		// value that does not fit the platform int is rejected outright.
		if v > maxHeaderValue || v > uint64(math.MaxInt) {
			return 0, fmt.Errorf("core: implausible header value %d", v)
		}
		return int(v), nil
	}
	h.dims = make([]int, ndims)
	total := 1
	for i := range h.dims {
		d, err := rd()
		if err != nil {
			return h, version, pos, err
		}
		if d <= 0 {
			return h, version, pos, fmt.Errorf("core: non-positive dimension %d", d)
		}
		h.dims[i] = d
		total *= d
	}
	var err error
	if h.origLen, err = rd(); err != nil {
		return h, version, pos, err
	}
	if total != h.origLen {
		return h, version, pos, fmt.Errorf("core: dims %v describe %d values, header says %d", h.dims, total, h.origLen)
	}
	if h.m, err = rd(); err != nil {
		return h, version, pos, err
	}
	if h.n, err = rd(); err != nil {
		return h, version, pos, err
	}
	if h.k, err = rd(); err != nil {
		return h, version, pos, err
	}
	if h.m < 1 || h.n < 1 || h.k < 1 || h.k > h.m || h.m >= h.n {
		return h, version, pos, fmt.Errorf("core: inconsistent shape M=%d N=%d K=%d", h.m, h.n, h.k)
	}
	// The padded block matrix covers the data and is at most one
	// power-of-two padding step larger.
	if h.m*h.n < h.origLen || h.m*h.n > 2*h.origLen+blockPadSlack {
		return h, version, pos, fmt.Errorf("core: block shape %dx%d inconsistent with %d values", h.m, h.n, h.origLen)
	}
	return h, version, pos, nil
}

// readSectionHeader parses one v-independent section header (rawLen,
// compLen and, for v2, the payload CRC) at pos, applying the
// plausibility guards shared by both versions.
func readSectionHeader(buf []byte, pos, version int) (rawLen, compLen int, crc uint32, next int, err error) {
	fixed := 16
	if version >= formatV2 {
		fixed = 20
	}
	if pos+fixed > len(buf) {
		return 0, 0, 0, pos, fmt.Errorf("core: truncated section header at offset %d", pos)
	}
	r := binary.LittleEndian.Uint64(buf[pos:])
	c := binary.LittleEndian.Uint64(buf[pos+8:])
	if r > maxHeaderValue || r > uint64(math.MaxInt) || c > maxHeaderValue || c > uint64(math.MaxInt) {
		return 0, 0, 0, pos, fmt.Errorf("core: implausible section size %d/%d", r, c)
	}
	rawLen, compLen = int(r), int(c)
	pos += 16
	if version >= formatV2 {
		crc = binary.LittleEndian.Uint32(buf[pos:])
		pos += 4
	}
	if compLen > len(buf)-pos {
		return 0, 0, 0, pos, fmt.Errorf("core: section payload overruns stream by %d bytes", compLen-(len(buf)-pos))
	}
	// zlib expands at most ~1032x; a declared raw length far beyond that
	// is corruption, and honoring it would be an allocation bomb.
	if rawLen > 1<<20+compLen*2048 {
		return 0, 0, 0, pos, fmt.Errorf("core: section declares implausible %d raw bytes from %d compressed", rawLen, compLen)
	}
	return rawLen, compLen, crc, pos, nil
}

// section is one section of a walked stream: where its payload lies and
// what the walk found wrong with its framing. Nothing in it has been
// checksummed or inflated.
type section struct {
	off    int // offset of the section header (its rawLen field)
	rawLen int
	crc    uint32 // stored CRC-32C of the payload (v2 and later)
	comp   []byte // the payload; nil when the walk could not reach it
	err    error  // a bad section header, or unreachable past one
}

// stream is a walked container: its fixed header and every section in
// stream order (for v3, the data sections and then the index).
type stream struct {
	version  int
	h        header
	secs     []section
	trailing int // bytes after the last section; 0 when the walk derailed
}

// walk is the one reader of a stream's section table; every decode,
// Verify, DecompressBestEffort, Inspect and IndexSection start from it.
// Damage to the fixed header, the section count or (v2 and later) the
// header CRC is an error, since without a trusted shape nothing is
// decodable. A bad section header is recorded in its section, and every
// later section is unreachable: the walk cannot resync past a corrupted
// size field. Each caller applies its own policy to what the walk found
// (dataErr, index, scan, Inspect).
func walk(buf []byte) (*stream, error) {
	h, version, pos, err := parseFixedHeader(buf)
	if err != nil {
		return nil, err
	}
	var nsec int
	switch version {
	case formatV1:
		if pos >= len(buf) {
			return nil, fmt.Errorf("core: missing section table")
		}
		nsec = int(buf[pos])
		pos++
		want := len(v1SectionNames) - 1
		if h.flags&flagStandardized != 0 {
			want++
		}
		if nsec != want {
			return nil, fmt.Errorf("core: %d sections, want %d", nsec, want)
		}
	default:
		if pos+6 > len(buf) {
			return nil, fmt.Errorf("core: missing section table")
		}
		nsec = int(binary.LittleEndian.Uint16(buf[pos:]))
		want := binary.LittleEndian.Uint32(buf[pos+2:])
		if got := integrity.Checksum(buf[:pos+2]); got != want {
			return nil, fmt.Errorf("core: header %w (stored %08x, computed %08x)", integrity.ErrCRC, want, got)
		}
		pos += 6
		if nsec != sectionCount(h, version) {
			return nil, fmt.Errorf("core: %d sections, want %d", nsec, sectionCount(h, version))
		}
	}

	s := &stream{version: version, h: h, secs: make([]section, nsec)}
	var derail error
	for i := range s.secs {
		sec := &s.secs[i]
		sec.off = pos
		if derail != nil {
			sec.err = fmt.Errorf("unreachable: %w", derail)
			continue
		}
		rawLen, compLen, crc, at, err := readSectionHeader(buf, pos, version)
		if err != nil {
			derail, sec.err = err, err
			continue
		}
		sec.rawLen, sec.crc, sec.comp = rawLen, crc, buf[at:at+compLen]
		pos = at + compLen
	}
	if derail == nil {
		s.trailing = len(buf) - pos
	}
	return s, nil
}

// v1SectionNames labels a v1 stream's sections in stream order.
var v1SectionNames = [...]string{"scores", "projection", "means", "scales"}

// sectionName labels section i for reports and Inspect.
func (s *stream) sectionName(i int) string {
	if s.version == formatV1 {
		return v1SectionNames[i]
	}
	return v2SectionName(s.h, i)
}

// ndata is the number of data sections: every section but a v3 index.
func (s *stream) ndata() int {
	if s.version == formatV1 {
		return len(s.secs)
	}
	return sectionLayout(s.h)
}

// sectionsThrough is the number of leading data sections that ranks
// [0, r) need: the side data and r (scores, projection) pairs. A v1
// stream is monolithic, so every rank needs all of its sections.
func (s *stream) sectionsThrough(r int) int {
	if s.version == formatV1 {
		return len(s.secs)
	}
	if s.h.flags&flagStandardized != 0 {
		return 2 + 2*r
	}
	return 1 + 2*r
}

// dataErr is the data decode's verdict on the walk: the first framing
// error among the data sections, or bytes after a v1/v2 stream's last
// section. Damage to a v3 index never fails a data decode; see index.
func (s *stream) dataErr() error {
	for _, sec := range s.secs[:s.ndata()] {
		if sec.err != nil {
			return sec.err
		}
	}
	if s.version < formatV3 && s.trailing != 0 {
		return fmt.Errorf("core: %d trailing bytes", s.trailing)
	}
	return nil
}

// index returns a v3 stream's raw retrieval-index payload, or nil when
// the stream has none or its framing is damaged: a bad section header,
// raw and stored lengths that differ, or bytes after it. The payload's
// own CRC is the retrieval codec's concern.
func (s *stream) index() []byte {
	if s.version < formatV3 {
		return nil
	}
	sec := s.secs[s.ndata()]
	if sec.err != nil || sec.rawLen != len(sec.comp) || s.trailing != 0 {
		return nil
	}
	return sec.comp
}
