package core

import (
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"math/bits"
	"slices"
	"sync"
)

// This file is DPZ's zlib writer (RFC 1950 around RFC 1951 deflate),
// sized to the units packUnit hands it: a section, or a shard of at most
// shardRawSize bytes, most of them a few hundred bytes of quantized
// scores. compress/flate pays fixed costs per stream that dominate at
// that size (clearing 640 KiB of hash tables on every Reset, building
// Huffman codes through sort.Sort, closing with an empty stored block);
// this writer clears a hash table sized to the unit, builds its codes
// without allocating and ends on the unit's last data block. Any zlib
// reader inflates its output, the decoder's compress/zlib included.
//
// Matching is zlib's: hash chains with lazy evaluation, tuned per level
// by zlib's (good, lazy, nice, chain) table, over 4-byte matches. Every
// block is written as the cheapest of stored, fixed-Huffman or
// dynamic-Huffman.

const (
	// minMatch is the shortest match searched for. Deflate codes matches
	// from 3 bytes, but on quantized scores a 3-byte match rarely costs
	// fewer bits than its literals; compress/flate also starts at 4.
	minMatch   = 4
	maxMatch   = 258
	windowSize = 1 << 15 // deflate's largest match distance
	// maxHashBits bounds the hash table: 1<<15 heads for units of 32 KiB
	// and up, fewer for smaller units (hashBits).
	maxHashBits = 15
	// minSavingDiv sets the saving a deflated unit must beat over stored
	// blocks, 1/64 of its length: decoding Huffman codes costs more than
	// copying stored bytes. On the flat 256×512 stream it stores 21 score
	// sections that would save 1–10 bytes each, 110 bytes in all, and
	// inflating the stream's score sections takes 2.10 instead of
	// 2.36–2.51 ms.
	minSavingDiv = 64
	// blockTokens is the most literals and matches one block holds; a
	// unit with more is written as several blocks, each with its own
	// codes. 16 Ki tokens is compress/flate's block size.
	blockTokens = 1 << 14

	endOfBlock = 256
	numLitLen  = 286 // literals, end of block, length codes 257..285
	numFixed   = 288 // the fixed code also assigns the unused 286 and 287
	numDist    = 30
	numCodeLen = 19 // the code-length alphabet of a dynamic header
	maxLitBits = 15 // longest literal/length or distance code
	maxCLBits  = 7  // longest code-length code

	// A token is a literal byte (< matchFlag) or matchFlag | (length−3)<<16
	// | (distance−1).
	matchFlag = 1 << 31
)

// zlibParams is one row of zlib's configuration table (deflate.c): the
// chain is cut to a quarter once the previous match reaches good, no
// lazy search follows a match of lazy bytes or more, a search stops at
// a match of nice bytes, and at most chain candidates are tried.
type zlibParams struct{ good, lazy, nice, chain int }

// zlibLevels is indexed by zlib level 1..9. zlib's levels 1–3 match
// greedily and read the lazy column as an insertion bound; here every
// level matches lazily and the column is the lazy threshold.
var zlibLevels = [10]zlibParams{
	1: {4, 4, 8, 4},
	2: {4, 5, 16, 8},
	3: {4, 6, 32, 32},
	4: {4, 4, 16, 16},
	5: {8, 16, 32, 32},
	6: {8, 16, 128, 128},
	7: {8, 32, 128, 256},
	8: {32, 128, 258, 1024},
	9: {32, 258, 258, 4096},
}

// RFC 1951 §3.2.5: base values and extra bits of the length codes
// 257..285 (base stored as length−3) and of the distance codes 0..29
// (base stored as distance−1).
var (
	lengthBase  = [29]uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 255}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [numDist]uint16{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576}
	distExtra   = [numDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeLenOrder is the order a dynamic header lists the code-length
	// code's lengths in.
	codeLenOrder = [numCodeLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// lengthCode[l] is the length code (0..28, symbol 257+code) of a match
// of length l+3.
var lengthCode = func() (t [256]uint8) {
	for c := range lengthBase {
		for l := int(lengthBase[c]); l < int(lengthBase[c])+1<<lengthExtra[c] && l < len(t); l++ {
			t[l] = uint8(c)
		}
	}
	return t
}()

// distCode is the distance code of a match distance−1 d < 32768: codes
// 0..3 are the distances 1..4, and beyond them each power of two splits
// into two codes.
func distCode(d uint32) uint32 {
	if d < 4 {
		return d
	}
	nb := uint32(bits.Len32(d)) - 1
	return 2*nb + (d>>(nb-1))&1
}

// fixedLit and fixedDist are RFC 1951's fixed Huffman codes.
var fixedLit, fixedDist = func() (lit, dist huffCode) {
	for s := 0; s < numLitLen; s++ {
		switch {
		case s < 144:
			lit.len[s] = 8
		case s < 256:
			lit.len[s] = 9
		case s < 280:
			lit.len[s] = 7
		default:
			lit.len[s] = 8
		}
	}
	lit.len[286], lit.len[287] = 8, 8
	lit.assign(numFixed)
	for s := 0; s < numDist; s++ {
		dist.len[s] = 5
	}
	dist.assign(numDist)
	return lit, dist
}()

// huffCode is a canonical Huffman code over up to numFixed symbols:
// each symbol's length (0 = unused) and its code, bit-reversed for
// deflate's LSB-first bit order.
type huffCode struct {
	len  [numFixed]uint8
	code [numFixed]uint16
}

// assign gives the first n symbols their canonical codes from their
// lengths (RFC 1951 §3.2.2).
func (h *huffCode) assign(n int) {
	var count [maxLitBits + 1]uint16
	for _, l := range h.len[:n] {
		count[l]++
	}
	count[0] = 0
	var next [maxLitBits + 1]uint16
	code := uint16(0)
	for b := 1; b <= maxLitBits; b++ {
		code = (code + count[b-1]) << 1
		next[b] = code
	}
	for s, l := range h.len[:n] {
		if l != 0 {
			h.code[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// huffBuilder is the scratch of a length-limited Huffman construction.
type huffBuilder struct {
	keys, tmp [numLitLen]uint32 // freq<<9 | symbol
	depth     [numLitLen]int32
}

// build sets h.len[s] for the symbols of freq (each below 1<<23) to an
// optimal prefix code's lengths, limited to maxBits; unused symbols get
// 0. The code always has at least two symbols, so it is complete: zlib's
// inflate rejects an incomplete code-length code. Symbols sort by
// frequency as integer keys, with no sort.Interface calls; Moffat and
// Katajainen's in-place algorithm gives the unlimited lengths, and
// lengths past maxBits are folded back by the Kraft-sum repair that
// miniz uses.
func (hb *huffBuilder) build(h *huffCode, freq []int32, maxBits int) {
	clear(h.len[:len(freq)])
	keys := hb.keys[:0]
	var most int32
	for s, f := range freq {
		if f > 0 {
			keys = append(keys, uint32(f)<<9|uint32(s))
			most = max(most, f)
		}
	}
	switch len(keys) {
	case 0:
		h.len[0], h.len[1] = 1, 1
		return
	case 1:
		// The one symbol pairs with symbol 0, or with 1 if it is 0.
		h.len[0], h.len[1] = 1, 1
		if s := keys[0] & 511; s > 1 {
			h.len[s], h.len[1] = 1, 0
		}
		return
	}
	if len(keys) <= 32 {
		// Few symbols (the distance and code-length codes): insertion sort.
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
	} else {
		keys = hb.radixSort(keys, most)
	}
	a := hb.depth[:len(keys)]
	for i, k := range keys {
		a[i] = int32(k >> 9)
	}
	minRedundancy(a)

	// a[i] is now the depth of the i-th least frequent symbol.
	var count [maxLitBits + 1]int
	for _, d := range a {
		count[min(int(d), maxBits)]++
	}
	total := 0
	for b := 1; b <= maxBits; b++ {
		total += count[b] << (maxBits - b)
	}
	for total > 1<<maxBits {
		// Lengthen the longest code shorter than maxBits by one to make
		// room for a maxBits code, removing one overflowing leaf.
		count[maxBits]--
		for b := maxBits - 1; b > 0; b-- {
			if count[b] > 0 {
				count[b]--
				count[b+1] += 2
				break
			}
		}
		total--
	}
	i := len(keys)
	for b := 1; b <= maxBits; b++ {
		for c := count[b]; c > 0; c-- {
			i--
			h.len[keys[i]&511] = uint8(b)
		}
	}
}

// radixSort sorts keys, in symbol order, by frequency, a byte per pass
// up to most's highest byte; being stable, it orders them by (frequency,
// symbol). The result is keys or hb.tmp.
func (hb *huffBuilder) radixSort(keys []uint32, most int32) []uint32 {
	tmp := hb.tmp[:len(keys)]
	for shift := 9; most > 0; shift, most = shift+8, most>>8 {
		var count [257]int
		for _, k := range keys {
			count[(k>>shift)&0xff+1]++
		}
		for b := 1; b < len(count); b++ {
			count[b] += count[b-1]
		}
		for _, k := range keys {
			b := (k >> shift) & 0xff
			tmp[count[b]] = k
			count[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// minRedundancy replaces the ascending weights in a (at least two) with
// the code lengths of an optimal prefix code for them, in place
// (Moffat and Katajainen, "In-place calculation of minimum-redundancy
// codes", 1995).
func minRedundancy(a []int32) {
	n := len(a)
	// Phase 1: build the tree; a[i] becomes internal node i's weight,
	// then its parent's index.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = int32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = int32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Phase 2: internal node depths.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Phase 3: leaf depths.
	avail, used, depth := 1, 0, int32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used, depth = 2*used, 0, depth+1
	}
}

// zwriter is the pooled state of one unit's encode. Only the first
// 1<<hashBits heads are cleared per unit; prev entries are written
// before they are read.
type zwriter struct {
	src      []byte
	cfg      zlibParams
	hashBits uint
	head     [1 << maxHashBits]int32 // newest position+1 per hash, 0 = none
	prev     [windowSize]int32       // previous position+1 with pos's hash, at pos mod windowSize

	tokens     [blockTokens]uint32
	ntok       int
	blockStart int // first source byte of the pending block
	blockEnd   int // one past the last source byte the tokens cover
	litFreq    [numLitLen]int32
	distFreq   [numDist]int32

	hb  huffBuilder
	dyn dynamicCode

	out   []byte
	bits  uint64
	nbits uint
}

var zwriterPool = sync.Pool{New: func() any { return new(zwriter) }}

// deflateUnit zlib-compresses one unit at a zlib level: 1 (fastest)
// through 9 (smallest), −1 for the default 6, 0 for stored blocks only.
// A unit whose blocks do not come out shorter than storedZlib(buf) by
// more than len(buf)/minSavingDiv bytes is returned as storedZlib(buf),
// so the result is never longer than storedZlibLen(len(buf)). The returned
// slice is the call's only heap allocation. Hash chains hold positions
// as int32, far above the shardRawSize bytes of packUnit's largest unit.
func deflateUnit(buf []byte, level int) []byte {
	if level < -1 || level > 9 {
		panic(fmt.Sprintf("core: invalid zlib level %d", level))
	}
	if level == -1 {
		level = 6
	}
	if level == 0 {
		return storedZlib(buf)
	}
	z := zwriterPool.Get().(*zwriter)
	defer zwriterPool.Put(z)
	z.reset(buf, level)
	z.lz77()
	z.flushBlock(true)
	z.align()
	z.out = binary.BigEndian.AppendUint32(z.out, adler32.Checksum(buf))
	z.src = nil
	if storedZlibLen(len(buf))-len(z.out) <= len(buf)/minSavingDiv {
		return storedZlib(buf)
	}
	return slices.Clone(z.out)
}

// reset readies z for src and writes the zlib header: CM 8 with a 32 KiB
// window, and FLEVEL set from level as zlib sets it.
func (z *zwriter) reset(src []byte, level int) {
	z.src = src
	z.cfg = zlibLevels[level]
	z.hashBits = uint(min(max(bits.Len(uint(len(src))), 8), maxHashBits))
	clear(z.head[:1<<z.hashBits])
	z.ntok, z.blockStart, z.blockEnd = 0, 0, 0
	clear(z.litFreq[:])
	clear(z.distFreq[:])
	z.bits, z.nbits = 0, 0
	var flevel byte
	switch {
	case level >= 7:
		flevel = 3
	case level == 6:
		flevel = 2
	case level >= 2:
		flevel = 1
	}
	cmf, flg := byte(0x78), flevel<<6
	flg += byte(31 - (uint16(cmf)<<8|uint16(flg))%31)
	z.out = append(z.out[:0], cmf, flg)
}

// insert adds position p (p+minMatch <= len(src)) to its hash chain and
// returns the chain's previous head, or −1.
func (z *zwriter) insert(p int) int {
	h := binary.LittleEndian.Uint32(z.src[p:]) * 0x9E3779B1 >> (32 - z.hashBits)
	v := z.head[h]
	z.prev[p&(windowSize-1)] = v
	z.head[h] = int32(p + 1)
	return int(v) - 1
}

// lz77 tokenizes src as zlib's deflate_slow does: the match found at
// each position is held back one byte, and it is emitted only if the
// match starting at the next byte is no longer.
func (z *zwriter) lz77() {
	src := z.src
	n := len(src)
	prevLen, prevDist := 0, 0 // the held-back match at pos−1 (0 = none)
	pending := false          // src[pos−1] is not yet emitted
	for pos := 0; pos < n; {
		// Each pass emits at most one token, and a full block is flushed
		// only once another token follows, so no block is empty.
		if z.ntok == blockTokens {
			z.flushBlock(false)
		}
		curLen, curDist := 0, 0
		if pos+minMatch <= n {
			if c := z.insert(pos); c >= 0 && prevLen < z.cfg.lazy && pos-c < windowSize {
				curLen, curDist = z.longestMatch(pos, c, prevLen)
			}
		}
		if prevLen >= minMatch && curLen <= prevLen {
			z.emitMatch(prevLen, prevDist)
			end := pos - 1 + prevLen
			for p := pos + 1; p < end && p+minMatch <= n; p++ {
				z.insert(p)
			}
			pos, pending, prevLen = end, false, 0
			continue
		}
		if pending {
			z.emitLiteral(src[pos-1])
		}
		pending = true
		prevLen, prevDist = curLen, curDist
		pos++
	}
	if pending {
		if z.ntok == blockTokens {
			z.flushBlock(false)
		}
		z.emitLiteral(src[n-1])
	}
}

// longestMatch walks pos's hash chain from candidate c and returns the
// longest match of at least minMatch bytes and longer than prevLen, or 0
// if there is none.
func (z *zwriter) longestMatch(pos, c, prevLen int) (length, dist int) {
	src := z.src
	maxLen := min(maxMatch, len(src)-pos)
	best := max(prevLen, minMatch-1)
	if best >= maxLen {
		return 0, 0
	}
	nice := min(z.cfg.nice, maxLen)
	chain := z.cfg.chain
	if prevLen >= z.cfg.good {
		chain >>= 2
	}
	limit := pos - windowSize
	want := src[pos : pos+maxLen]
	for {
		if src[c+best] == want[best] && src[c] == want[0] {
			if l := matchLen(src[c:c+maxLen], want); l > best {
				best, dist = l, pos-c
				if l >= nice {
					break
				}
			}
		}
		if chain--; chain == 0 {
			break
		}
		next := int(z.prev[c&(windowSize-1)]) - 1
		if next <= limit || next < 0 {
			break
		}
		c = next
	}
	if dist == 0 {
		return 0, 0
	}
	return best, dist
}

// matchLen is the length of the common prefix of a and b (len(a) ==
// len(b)), eight bytes at a time.
func matchLen(a, b []byte) int {
	n := 0
	for ; len(b)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// emitLiteral and emitMatch append a token to a block with room for it.
func (z *zwriter) emitLiteral(b byte) {
	z.tokens[z.ntok] = uint32(b)
	z.ntok++
	z.litFreq[b]++
	z.blockEnd++
}

func (z *zwriter) emitMatch(length, dist int) {
	l, d := uint32(length-3), uint32(dist-1)
	z.tokens[z.ntok] = matchFlag | l<<16 | d
	z.ntok++
	z.litFreq[257+int(lengthCode[l])]++
	z.distFreq[distCode(d)]++
	z.blockEnd += length
}

// flushBlock writes the pending tokens as the cheapest of stored blocks,
// a fixed-Huffman block and a dynamic-Huffman block, and starts the next
// block.
func (z *zwriter) flushBlock(final bool) {
	raw := z.src[z.blockStart:z.blockEnd]
	z.litFreq[endOfBlock] = 1
	extra := 0
	for c, f := range z.litFreq[257:] {
		extra += int(f) * int(lengthExtra[c])
	}
	for c, f := range z.distFreq {
		extra += int(f) * int(distExtra[c])
	}
	fixed := 3 + extra
	for s, f := range z.litFreq {
		fixed += int(f) * int(fixedLit.len[s])
	}
	for _, f := range z.distFreq {
		fixed += int(f) * 5
	}
	dynamic := 3 + extra + z.dyn.build(&z.hb, z.litFreq[:], z.distFreq[:])
	nstored := max(1, (len(raw)+maxStoredBlock-1)/maxStoredBlock)
	stored := 3 + int((8-(z.nbits+3)%8)%8) + 32 + 40*(nstored-1) + 8*len(raw)

	var fin uint64
	if final {
		fin = 1
	}
	switch {
	case stored < fixed && stored < dynamic:
		z.writeStored(raw, final)
	case dynamic < fixed:
		z.writeBits(fin|2<<1, 3)
		z.writeHeader(&z.dyn)
		z.writeTokens(&z.dyn.lit, &z.dyn.dist)
	default:
		z.writeBits(fin|1<<1, 3)
		z.writeTokens(&fixedLit, &fixedDist)
	}
	z.ntok = 0
	z.blockStart = z.blockEnd
	clear(z.litFreq[:])
	clear(z.distFreq[:])
}

// dynamicCode is one dynamic block's codes and its header: the
// literal/length and distance code lengths, run-length coded as one
// sequence over the code-length alphabet (16 repeats the previous length
// 3–6 times, 17 and 18 write 3–10 and 11–138 zeros).
type dynamicCode struct {
	lit, dist, cl      huffCode
	hlit, hdist, hclen int
	lengths            [numLitLen + numDist]uint8 // lit.len[:hlit], dist.len[:hdist]
	clSyms             [numLitLen + numDist]uint8
	clExtra            [numLitLen + numDist]uint8 // each symbol's repeat count
	nclSyms            int
	clFreq             [numCodeLen]int32
}

// build builds the codes for the given frequencies and returns the bits
// of the block's header after its first 3 and of its symbols' codes,
// without their extra bits.
func (d *dynamicCode) build(hb *huffBuilder, litFreq, distFreq []int32) int {
	hb.build(&d.lit, litFreq, maxLitBits)
	hb.build(&d.dist, distFreq, maxLitBits)
	d.hlit = numLitLen
	for d.hlit > 257 && d.lit.len[d.hlit-1] == 0 {
		d.hlit--
	}
	d.hdist = numDist
	for d.hdist > 1 && d.dist.len[d.hdist-1] == 0 {
		d.hdist--
	}

	clear(d.clFreq[:])
	d.nclSyms = 0
	put := func(sym, extra uint8) {
		d.clSyms[d.nclSyms], d.clExtra[d.nclSyms] = sym, extra
		d.nclSyms++
		d.clFreq[sym]++
	}
	lengths := append(append(d.lengths[:0], d.lit.len[:d.hlit]...), d.dist.len[:d.hdist]...)
	for i := 0; i < len(lengths); {
		l := lengths[i]
		run := 1
		for i+run < len(lengths) && lengths[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for run >= 11 {
				r := min(run, 138)
				put(18, uint8(r-11))
				run -= r
			}
			if run >= 3 {
				put(17, uint8(run-3))
				run = 0
			}
		} else {
			put(l, 0)
			run--
			for run >= 3 {
				r := min(run, 6)
				put(16, uint8(r-3))
				run -= r
			}
		}
		for ; run > 0; run-- {
			put(l, 0)
		}
	}
	hb.build(&d.cl, d.clFreq[:], maxCLBits)

	d.hclen = numCodeLen
	for d.hclen > 4 && d.cl.len[codeLenOrder[d.hclen-1]] == 0 {
		d.hclen--
	}
	n := 5 + 5 + 4 + 3*d.hclen
	for s, f := range d.clFreq {
		n += int(f) * int(d.cl.len[s])
	}
	n += 2*int(d.clFreq[16]) + 3*int(d.clFreq[17]) + 7*int(d.clFreq[18])
	for s, f := range litFreq[:d.hlit] {
		n += int(f) * int(d.lit.len[s])
	}
	for s, f := range distFreq[:d.hdist] {
		n += int(f) * int(d.dist.len[s])
	}
	return n
}

// writeHeader assigns a dynamic block's codes and writes its header
// after its first 3 bits.
func (z *zwriter) writeHeader(d *dynamicCode) {
	d.lit.assign(d.hlit)
	d.dist.assign(d.hdist)
	d.cl.assign(numCodeLen)
	z.writeBits(uint64(d.hlit-257), 5)
	z.writeBits(uint64(d.hdist-1), 5)
	z.writeBits(uint64(d.hclen-4), 4)
	for _, s := range codeLenOrder[:d.hclen] {
		z.writeBits(uint64(d.cl.len[s]), 3)
	}
	for i, s := range d.clSyms[:d.nclSyms] {
		z.writeBits(uint64(d.cl.code[s]), uint(d.cl.len[s]))
		switch s {
		case 16:
			z.writeBits(uint64(d.clExtra[i]), 2)
		case 17:
			z.writeBits(uint64(d.clExtra[i]), 3)
		case 18:
			z.writeBits(uint64(d.clExtra[i]), 7)
		}
	}
}

// writeTokens writes the pending tokens and the end-of-block symbol
// with the given codes.
func (z *zwriter) writeTokens(lit, dist *huffCode) {
	for _, t := range z.tokens[:z.ntok] {
		if t < matchFlag {
			z.writeBits(uint64(lit.code[t]), uint(lit.len[t]))
			continue
		}
		l, d := (t>>16)&0xff, t&0x7fff
		lc := lengthCode[l]
		s := 257 + int(lc)
		z.writeBits(uint64(lit.code[s])|uint64(l-uint32(lengthBase[lc]))<<lit.len[s], uint(lit.len[s]+lengthExtra[lc]))
		dc := distCode(d)
		z.writeBits(uint64(dist.code[dc])|uint64(d-uint32(distBase[dc]))<<dist.len[dc], uint(dist.len[dc]+distExtra[dc]))
	}
	z.writeBits(uint64(lit.code[endOfBlock]), uint(lit.len[endOfBlock]))
}

// writeStored writes raw as stored blocks of at most maxStoredBlock
// bytes; only the last can be final.
func (z *zwriter) writeStored(raw []byte, final bool) {
	for first := true; first || len(raw) > 0; first = false {
		blk := raw[:min(len(raw), maxStoredBlock)]
		raw = raw[len(blk):]
		var fin uint64
		if final && len(raw) == 0 {
			fin = 1
		}
		z.writeBits(fin, 3)
		z.align()
		n := uint16(len(blk))
		z.out = append(z.out, byte(n), byte(n>>8), byte(^n), byte(^n>>8))
		z.out = append(z.out, blk...)
	}
}

// writeBits appends the low n bits of v (n <= 32) LSB first.
func (z *zwriter) writeBits(v uint64, n uint) {
	z.bits |= v << z.nbits
	z.nbits += n
	if z.nbits >= 32 {
		z.out = binary.LittleEndian.AppendUint32(z.out, uint32(z.bits))
		z.bits >>= 32
		z.nbits -= 32
	}
}

// align pads the bit stream with zeros to a byte boundary and flushes it.
func (z *zwriter) align() {
	for z.nbits > 0 {
		z.out = append(z.out, byte(z.bits))
		z.bits >>= 8
		z.nbits -= min(z.nbits, 8)
	}
}
