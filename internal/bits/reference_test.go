package bits

import (
	"bytes"
	"math/rand"
	"testing"
)

// refWriter and refReader are the bit-at-a-time coder the word-wide
// Writer and Reader replaced, kept as the oracle for their output bytes
// and read values. Do not edit them.
type refWriter struct {
	buf  []byte
	cur  uint8
	nfil uint
}

func (w *refWriter) WriteBit(b uint) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.nfil++
	if w.nfil == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur = 0
		w.nfil = 0
	}
}

func (w *refWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint(v>>uint(i)) & 1)
	}
}

func (w *refWriter) Len() int { return len(w.buf)*8 + int(w.nfil) }

func (w *refWriter) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	if w.nfil > 0 {
		out = append(out, w.cur<<(8-w.nfil))
	}
	return out
}

type refReader struct {
	buf []byte
	pos int
}

func (r *refReader) ReadBit() (uint, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	shift := 7 - uint(r.pos&7)
	b := uint(r.buf[byteIdx]>>shift) & 1
	r.pos++
	return b, nil
}

func (r *refReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// TestWordWideMatchesBitAtATime writes random (value, width 0..64)
// sequences — values carrying garbage above their width, single bits
// mixed in — through both coders and requires identical lengths and
// bytes, then reads them back through both readers, including a final
// read past the end.
func TestWordWideMatchesBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200)
		vals := make([]uint64, n)
		widths := make([]uint, n)
		w, ref := NewWriter(), &refWriter{}
		for i := range vals {
			vals[i], widths[i] = rng.Uint64(), uint(rng.Intn(65))
			if rng.Intn(8) == 0 {
				w.WriteBit(uint(vals[i] & 3))
				ref.WriteBit(uint(vals[i] & 3))
				widths[i] = 1
				if vals[i]&3 != 0 {
					vals[i] = 1
				} else {
					vals[i] = 0
				}
				continue
			}
			w.WriteBits(vals[i], widths[i])
			ref.WriteBits(vals[i], widths[i])
			if w.Len() != ref.Len() {
				t.Fatalf("trial %d write %d: Len %d, bit-at-a-time %d", trial, i, w.Len(), ref.Len())
			}
		}
		got, want := w.Bytes(), ref.Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: bytes differ\n got %x\nwant %x", trial, got, want)
		}
		r, rr := NewReader(got), &refReader{buf: got}
		for i := range vals {
			v, err := r.ReadBits(widths[i])
			rv, rerr := rr.ReadBits(widths[i])
			if err != nil || rerr != nil || v != rv || r.Pos() != rr.pos {
				t.Fatalf("trial %d read %d (width %d): %x, %v at %d; bit-at-a-time %x, %v at %d",
					trial, i, widths[i], v, err, r.Pos(), rv, rerr, rr.pos)
			}
		}
		// Past the end: the padding bits read as zeros, and a read longer
		// than what is left fails without moving the position.
		pad := uint(r.Remaining())
		if v, err := r.ReadBits(pad + 1); err != ErrOutOfBits || v != 0 || r.Remaining() != int(pad) {
			t.Fatalf("trial %d: overlong read = %x, %v, %d bits left; want ErrOutOfBits with %d left", trial, v, err, r.Remaining(), pad)
		}
		if v, err := r.ReadBits(pad); err != nil || v != 0 || r.Remaining() != 0 {
			t.Fatalf("trial %d: padding read = %x, %v", trial, v, err)
		}
	}
}
