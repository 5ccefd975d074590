package core

import (
	"context"
	"testing"
)

// FuzzDecompress drives the container decoder with arbitrary bytes. Run
// with `go test -fuzz=FuzzDecompress ./internal/core` for a real campaign;
// plain `go test` replays the seed corpus. The invariant: never panic, and
// any accepted stream must be shape-consistent.
func FuzzDecompress(f *testing.F) {
	field := smoothField()
	c, err := Compress(field.Data, field.Dims, DPZL())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c.Bytes)
	f.Add([]byte{})
	f.Add([]byte("DPZ1"))
	f.Add(append([]byte("DPZ1\x01\x00\x02\x01"), make([]byte, 64)...))
	half := make([]byte, len(c.Bytes)/2)
	copy(half, c.Bytes)
	f.Add(half)

	f.Fuzz(func(t *testing.T, buf []byte) {
		out, dims, err := Decompress(context.Background(), buf, 1, 0, nil)
		if err != nil {
			return
		}
		total := 1
		for _, d := range dims {
			total *= d
		}
		if total != len(out) {
			t.Fatalf("accepted stream with inconsistent shape: dims %v, %d values", dims, len(out))
		}
	})
}

// FuzzInspect drives the stream-metadata reader with arbitrary bytes.
// Inspect walks the section table without inflating payloads, so it
// must be total: never panic, and any accepted stream must report a
// self-consistent shape (dims product == value count, sections named,
// sizes within the buffer).
func FuzzInspect(f *testing.F) {
	field := smoothField()
	c, err := Compress(field.Data, field.Dims, DPZL())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c.Bytes)
	f.Add([]byte{})
	f.Add([]byte("DPZ1"))
	f.Add(append([]byte("DPZ1\x01\x00\x02\x01"), make([]byte, 64)...))
	trunc := make([]byte, len(c.Bytes)-7)
	copy(trunc, c.Bytes)
	f.Add(trunc)
	flipped := append([]byte(nil), c.Bytes...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, buf []byte) {
		info, err := Inspect(buf)
		if err != nil {
			return
		}
		total := 1
		for _, d := range info.Dims {
			if d <= 0 {
				t.Fatalf("accepted stream with non-positive dim: %v", info.Dims)
			}
			total *= d
		}
		if total != info.Values {
			t.Fatalf("accepted stream with inconsistent shape: dims %v, %d values", info.Dims, info.Values)
		}
		if info.StreamBytes != len(buf) {
			t.Fatalf("StreamBytes %d != len(buf) %d", info.StreamBytes, len(buf))
		}
		for _, s := range info.Sections {
			if s.Name == "" {
				t.Fatal("accepted stream with unnamed section")
			}
			if s.CompressedBytes < 0 || s.RawBytes < 0 || s.CompressedBytes > len(buf) {
				t.Fatalf("section %q sizes out of range: comp %d raw %d", s.Name, s.CompressedBytes, s.RawBytes)
			}
		}
	})
}
