// Package bits implements an MSB-first bit stream writer/reader. It is the
// encoding substrate for the ZFP-like baseline's embedded bit-plane coder,
// the canonical Huffman coder used by the SZ-like baseline and DPZ's
// projection codec.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrOutOfBits is returned when a read runs past the end of the stream.
var ErrOutOfBits = errors.New("bits: read past end of stream")

// Writer accumulates bits MSB-first into a byte buffer. Bits gather in a
// 64-bit accumulator that is flushed eight bytes at a time, so a
// multi-bit write costs a shift and an OR rather than one step per bit.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, right-aligned
	nacc uint   // number of pending bits (0..63)
}

// NewWriter creates an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBit appends a single bit (any nonzero b writes 1).
func (w *Writer) WriteBit(b uint) {
	w.acc <<= 1
	if b != 0 {
		w.acc |= 1
	}
	w.nacc++
	if w.nacc == 64 {
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
		w.acc, w.nacc = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bits: WriteBits count %d > 64", n))
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.nacc
	if n < free {
		w.acc = w.acc<<n | v
		w.nacc += n
		return
	}
	// Fill the accumulator with v's top free bits, flush it, and keep the
	// rest. Go defines a shift by 64 as 0, which covers both an empty
	// accumulator (free == 64) and an empty remainder.
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc = v & (1<<rest - 1)
	w.nacc = rest
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return len(w.buf)*8 + int(w.nacc) }

// Bytes flushes any partial byte (zero-padded) and returns the buffer. The
// writer remains usable; subsequent writes continue after the flushed
// content only if the bit count was a multiple of 8, so callers should
// treat Bytes as terminal.
func (w *Writer) Bytes() []byte {
	nb := int(w.nacc+7) / 8
	out := make([]byte, len(w.buf), len(w.buf)+nb)
	copy(out, w.buf)
	if nb > 0 {
		var tail [8]byte
		binary.BigEndian.PutUint64(tail[:], w.acc<<(64-w.nacc))
		out = append(out, tail[:nb]...)
	}
	return out
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // bit position
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (uint, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	shift := 7 - uint(r.pos&7)
	b := uint(r.buf[byteIdx]>>shift) & 1
	r.pos++
	return b, nil
}

// ReadBits reads n bits MSB-first into the low bits of the result. n must
// be in [0, 64]. A read that would run past the end of the stream returns
// ErrOutOfBits and consumes nothing: the position stays where it was.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bits: ReadBits count %d > 64", n))
	}
	if int(n) > r.Remaining() {
		return 0, ErrOutOfBits
	}
	if n == 0 {
		return 0, nil
	}
	v := r.peek64() >> (64 - n)
	r.pos += int(n)
	return v, nil
}

// peek64 returns the 64 bits starting at the current position, left-
// aligned and zero-padded past the end of the stream.
func (r *Reader) peek64() uint64 {
	i := r.pos >> 3
	var w uint64
	if i+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for k := i; k < i+8; k++ {
			w <<= 8
			if k < len(r.buf) {
				w |= uint64(r.buf[k])
			}
		}
	}
	if off := uint(r.pos & 7); off > 0 {
		w <<= off
		if i+8 < len(r.buf) {
			w |= uint64(r.buf[i+8]) >> (8 - off)
		}
	}
	return w
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.pos }

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }
