package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter()
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsMSBFirst(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b1011, 4)
	w.WriteBits(0b0001, 4)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b10110001 {
		t.Fatalf("bytes = %08b", b)
	}
}

func TestPartialByteZeroPadded(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b11, 2)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b11000000 {
		t.Fatalf("bytes = %08b", b)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("err = %v, want ErrOutOfBits", err)
	}
	if _, err := r.ReadBits(3); err != ErrOutOfBits {
		t.Fatalf("multi-bit err = %v", err)
	}
}

func TestRemainingAndPos(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 || r.Pos() != 0 {
		t.Fatalf("initial Remaining=%d Pos=%d", r.Remaining(), r.Pos())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 || r.Pos() != 5 {
		t.Fatalf("after read Remaining=%d Pos=%d", r.Remaining(), r.Pos())
	}
}

func TestWriteBitsPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWriter().WriteBits(0, 65)
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		vals := make([]uint64, n)
		widths := make([]uint, n)
		w := NewWriter()
		for i := 0; i < n; i++ {
			widths[i] = uint(1 + rng.Intn(64))
			vals[i] = rng.Uint64()
			if widths[i] < 64 {
				vals[i] &= (1 << widths[i]) - 1
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBitsPastEndConsumesNothing(t *testing.T) {
	r := NewReader([]byte{0xA5, 0x0F})
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(14); err != ErrOutOfBits {
		t.Fatalf("err = %v, want ErrOutOfBits", err)
	}
	if r.Pos() != 3 {
		t.Fatalf("failed read moved the position to %d", r.Pos())
	}
	if v, err := r.ReadBits(13); err != nil || v != 0x50F {
		t.Fatalf("remaining 13 bits = %x, %v; want 50f", v, err)
	}
}
