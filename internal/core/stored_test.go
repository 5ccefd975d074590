package core

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"dpz/internal/dataset"
	"dpz/internal/integrity"
)

// inflatedSections walks a v2/v3 stream and inflates every data section
// through the decoder's inflate, failing the test on any damage,
// including to a v3 index section. The walked stream is returned with
// the inflated sections in stream order.
func inflatedSections(t testing.TB, buf []byte) (*stream, [][]byte) {
	t.Helper()
	s, err := walk(buf)
	if err != nil {
		t.Fatal(err)
	}
	d := &decoder{stream: s}
	raw, errs, err := d.inflate(context.Background(), 0, s.ndata())
	if err == nil {
		err = firstErr(errs)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range s.secs[s.ndata():] {
		if sec.err != nil || integrity.Checksum(sec.comp) != sec.crc {
			t.Fatalf("index section damaged: %v", sec.err)
		}
	}
	return s, raw
}

// rawSections holds a v2/v3 stream's inflated sections as
// encodeContainer takes them, so a test can re-encode them.
type rawSections struct {
	h                    header
	scores, proj         [][]byte
	means, scales, index []byte
}

func splitSections(s *stream, raw [][]byte) rawSections {
	rs := rawSections{h: s.h, means: raw[0], index: s.index()}
	base := s.sectionsThrough(0)
	if base == 2 {
		rs.scales = raw[1]
	}
	for j := 0; j < s.h.k; j++ {
		rs.scores = append(rs.scores, raw[base+2*j])
		rs.proj = append(rs.proj, raw[base+2*j+1])
	}
	return rs
}

// randomBytes returns n bytes no entropy coder can shrink.
func randomBytes(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// checkStoredZlib asserts storedZlib(raw) has the documented length and
// inflates back to raw through compress/zlib and through inflateSection.
func checkStoredZlib(t *testing.T, raw []byte) []byte {
	t.Helper()
	payload := storedZlib(raw)
	blocks := max(1, (len(raw)+maxStoredBlock-1)/maxStoredBlock)
	if want := len(raw) + 6 + 5*blocks; len(payload) != want {
		t.Fatalf("len %d: stored stream is %d bytes, want %d", len(raw), len(payload), want)
	}
	r, err := zlib.NewReader(bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("len %d: zlib open: %v", len(raw), err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("len %d: zlib read: %v", len(raw), err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("len %d: compress/zlib round trip differs", len(raw))
	}
	got, err = inflateSection(context.Background(), payload, len(raw), 1)
	if err != nil {
		t.Fatalf("len %d: inflateSection: %v", len(raw), err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("len %d: inflateSection round trip differs", len(raw))
	}
	return payload
}

func TestStoredZlibRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, maxStoredBlock, maxStoredBlock + 1, 200_000} {
		raw := randomBytes(n, int64(n))
		payload := checkStoredZlib(t, raw)
		if n > 0 {
			if d := deflate(raw, 9, 0); len(d) < len(payload) {
				t.Errorf("len %d: flate wrote %d bytes, stored %d", n, len(d), len(payload))
			}
		}
	}

	// A section over shardRawSize stores shard by shard.
	raw := randomBytes(shardRawSize+70_000, 7)
	payload := deflateSection(raw, -1, 2)
	units := sectionUnits(t, payload, raw)
	if len(units) != 2 {
		t.Fatalf("%d-byte section split into %d units, want 2 shards", len(raw), len(units))
	}
	for i, u := range units {
		if !bytes.Equal(u.payload, storedZlib(u.raw)) {
			t.Fatalf("shard %d of random bytes was not stored", i)
		}
	}
	for _, w := range []int{1, 2} {
		got, err := inflateSection(context.Background(), payload, len(raw), w)
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("workers %d: sharded stored section round trip: %v", w, err)
		}
	}
}

// unit is one zlib-encoded unit of a section: the whole section, or one
// shard of a sharded section.
type unit struct{ raw, payload []byte }

// sectionUnits splits a section payload and its raw bytes into units.
func sectionUnits(t *testing.T, payload, raw []byte) []unit {
	t.Helper()
	spans := shardSpans(len(raw))
	if spans == nil {
		return []unit{{raw, payload}}
	}
	if !isSharded(payload) || int(binary.LittleEndian.Uint32(payload[4:])) != len(spans) {
		t.Fatalf("%d-byte section is not framed as %d shards", len(raw), len(spans))
	}
	data := payload[8+16*len(spans):]
	units := make([]unit, len(spans))
	for i, s := range spans {
		c := int(binary.LittleEndian.Uint64(payload[8+16*i+8:]))
		units[i] = unit{raw[s.off:s.end], data[:c]}
		data = data[c:]
	}
	return units
}

// storedCorpus is every dataset at scales 0.1 and 0.25, the 256×512
// CESM fields (the perfbench snapshot shape), a constant and a ramp.
func storedCorpus(t *testing.T) []*dataset.Field {
	t.Helper()
	var fields []*dataset.Field
	for _, scale := range []float64{0.1, 0.25} {
		for _, name := range dataset.Names {
			f, err := dataset.Generate(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			f.Name = fmt.Sprintf("%s@%g", name, scale)
			fields = append(fields, f)
		}
	}
	for i, name := range []string{"CLDHGH", "CLDLOW", "PHIS", "FREQSH", "FLDSC"} {
		f := dataset.CESM(name, 256, 512, int64(2001+i))
		f.Name = name + "-256x512"
		fields = append(fields, f)
	}
	constant := &dataset.Field{Name: "constant", Dims: []int{64, 64}, Data: make([]float64, 64*64)}
	ramp := &dataset.Field{Name: "ramp", Dims: []int{128, 256}, Data: make([]float64, 128*256)}
	for i := range constant.Data {
		constant.Data[i] = 7.25
	}
	for i := range ramp.Data {
		ramp.Data[i] = float64(i/256) + 0.5*float64(i%256)
	}
	return append(fields, constant, ramp)
}

// sectionClass maps a section name to its class: means, scales, scores
// or projection.
func sectionClass(name string) string {
	if i := strings.LastIndexByte(name, ' '); i >= 0 {
		return name[i+1:]
	}
	return name
}

// TestStoredSectionsNeverLoseToDeflate checks the stored-or-deflate
// rule over a corpus × {DPZL, DPZS} × ZLevel {0, 1, 9} × RawProjection
// {off, on}: every unit the encoder stored would not have deflated
// smaller at the stream's level. It also pins that the flat 256×512
// CLDHGH stream stores every projection section, and logs per level and
// section class how many units were stored and the bytes storing won.
// No unit may stay deflated when storing it would have been smaller:
// the missed column must read zero in every row. The level reaches nothing before the
// container, so each field compresses once per scheme and projection
// mode, and the other levels re-encode its sections.
func TestStoredSectionsNeverLoseToDeflate(t *testing.T) {
	type tally struct{ units, stored, won, missed int }
	var mu sync.Mutex
	tallies := map[string]*tally{}
	var keys []string
	t.Run("corpus", func(t *testing.T) {
		for _, f := range storedCorpus(t) {
			t.Run(f.Name, func(t *testing.T) {
				t.Parallel()
				checkStoredRule(t, f, func(key string, stored bool, won, missed int) {
					mu.Lock()
					defer mu.Unlock()
					tl := tallies[key]
					if tl == nil {
						tl = &tally{}
						tallies[key] = tl
						keys = append(keys, key)
					}
					tl.units++
					if stored {
						tl.stored++
					}
					tl.won += won
					tl.missed += missed
				})
			})
		}
	})
	sort.Strings(keys)
	for _, key := range keys {
		tl := tallies[key]
		t.Logf("%s units %5d  stored %5d  bytes won %6d  missed %6d", key, tl.units, tl.stored, tl.won, tl.missed)
		if tl.missed != 0 {
			t.Errorf("%s: deflated units are %d bytes larger than stored blocks", key, tl.missed)
		}
	}
}

// checkStoredRule runs one corpus field through every scheme, level and
// projection mode, failing on a stored unit deflate would have shrunk,
// and reports each unit under its level, projection mode and section
// class: whether it was stored, the bytes storing won and the bytes
// storing would have won on a deflated unit.
func checkStoredRule(t *testing.T, f *dataset.Field, report func(key string, stored bool, won, missed int)) {
	for _, scheme := range []struct {
		name string
		p    Params
	}{{"DPZL", DPZL()}, {"DPZS", DPZS()}} {
		for _, rawProj := range []bool{false, true} {
			p := scheme.p
			p.RawProjection = rawProj
			c, err := Compress(f.Data, f.Dims, p)
			if err != nil {
				t.Fatalf("%s %s: %v", f.Name, scheme.name, err)
			}
			walked0, raw0 := inflatedSections(t, c.Bytes)
			cont := splitSections(walked0, raw0)
			pinned := f.Name == "CLDHGH-256x512" && scheme.name == "DPZL" && !rawProj
			for _, zl := range []int{0, 1, 9} {
				id := fmt.Sprintf("%s %s zlevel %d raw-projection %v", f.Name, scheme.name, zl, rawProj)
				walked, raw := walked0, raw0
				if zl != 0 {
					p.ZLevel = zl
					stream, _, err := encodeContainer(context.Background(), cont.h, cont.scores, cont.proj,
						cont.means, cont.scales, cont.index, p.zlibLevel(), 0)
					if err != nil {
						t.Fatal(err)
					}
					walked, raw = inflatedSections(t, stream)
				}
				for i, s := range walked.secs[:walked.ndata()] {
					name := walked.sectionName(i)
					key := fmt.Sprintf("zlevel %d raw-projection %-5v %-10s", zl, rawProj, sectionClass(name))
					for _, u := range sectionUnits(t, s.comp, raw[i]) {
						stored := storedZlib(u.raw)
						if !bytes.Equal(u.payload, stored) {
							if pinned && sectionClass(name) == "projection" {
								t.Fatalf("%s: %s was deflated", id, name)
							}
							report(key, false, 0, max(0, len(u.payload)-len(stored)))
							continue
						}
						d := deflate(u.raw, p.zlibLevel(), 0)
						if len(d) < len(stored) {
							t.Fatalf("%s: %s stored in %d bytes, deflate gives %d", id, name, len(stored), len(d))
						}
						report(key, true, len(d)-len(stored), 0)
					}
				}
			}
		}
	}
}

// TestContainerSizedOnce: the stream buffer is allocated at its final
// size, whether or not the stream carries an index.
func TestContainerSizedOnce(t *testing.T) {
	f := smoothField()
	for _, noIndex := range []bool{false, true} {
		p := DPZL()
		p.NoIndex = noIndex
		c, err := Compress(f.Data, f.Dims, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Bytes) != cap(c.Bytes) {
			t.Fatalf("no-index %v: stream is %d bytes in a %d-byte buffer", noIndex, len(c.Bytes), cap(c.Bytes))
		}
	}
}

// FuzzStoredZlib: any byte slice round-trips through storedZlib, and a
// stream whose every section is stored passes Verify and inflates back
// to its sections.
func FuzzStoredZlib(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xAB}, 1000))
	f.Add(randomBytes(maxStoredBlock+3, 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload := checkStoredZlib(t, raw)
		h := header{dims: []int{2, 2}, origLen: 4, m: 1, n: 4, k: 1}
		secs := [][]byte{raw, raw, raw} // means, rank 0 scores, rank 0 projection
		stream, _ := writeContainer(h, secs, [][]byte{payload, payload, payload}, nil)
		if err := Verify(stream); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		walked, inflated := inflatedSections(t, stream)
		for i := range walked.secs {
			if !bytes.Equal(inflated[i], raw) {
				t.Fatalf("section %s does not inflate back", walked.sectionName(i))
			}
		}
	})
}

// containerSink keeps the benchmarked stream alive.
var containerSink []byte

// BenchmarkEncodeContainer256x512 runs the zlib stage alone: the
// sections of the flat 256×512 CLDHGH stream (DPZL, k=254 of M=256)
// through encodeContainer at the default level.
func BenchmarkEncodeContainer256x512(b *testing.B) {
	f := dataset.CESM("CLDHGH", 256, 512, 2001)
	c, err := Compress(f.Data, f.Dims, DPZL())
	if err != nil {
		b.Fatal(err)
	}
	cont := splitSections(inflatedSections(b, c.Bytes))
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.SetBytes(int64(c.Stats.OrigBytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stream, _, err := encodeContainer(context.Background(), cont.h, cont.scores, cont.proj,
					cont.means, cont.scales, cont.index, -1, w)
				if err != nil {
					b.Fatal(err)
				}
				containerSink = stream
			}
		})
	}
}
