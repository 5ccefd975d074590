package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dpz/internal/dataset"
	"dpz/internal/integrity"
)

// checkShape fails the test when an accepted reconstruction does not
// match its declared dimensions.
func checkShape(t *testing.T, label string, out []float64, dims []int) {
	t.Helper()
	total := 1
	for _, d := range dims {
		total *= d
	}
	if total != len(out) {
		t.Fatalf("%s: accepted stream with inconsistent shape (dims %v, %d values)", label, dims, len(out))
	}
}

// TestDecompressNeverPanicsOnCorruption sweeps the deterministic fault
// harness (bit flips, byte zeroes, truncations) over a valid stream and
// feeds random garbage: Decompress must always return an error or data —
// never panic. A panic in a decoder is a denial-of-service bug.
func TestDecompressNeverPanicsOnCorruption(t *testing.T) {
	f := smoothField()
	c, err := Compress(f.Data, f.Dims, DPZL())
	if err != nil {
		t.Fatal(err)
	}
	try := func(buf []byte, label string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decompress panicked on %s: %v", label, r)
			}
		}()
		out, dims, err := Decompress(context.Background(), buf, 1, 0, nil)
		if err == nil {
			checkShape(t, label, out, dims)
		}
	}

	integrity.ForEach(c.Bytes, 512, func(fault integrity.Fault, corrupted []byte) {
		try(corrupted, fault.String())
	})

	// Random garbage with a valid magic prefix.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(4096)
		buf := make([]byte, n)
		rng.Read(buf)
		if n >= 5 {
			copy(buf, magic[:])
			buf[4] = formatVersion
		}
		try(buf, "garbage trial")
	}
}

// TestBestEffortNeverPanicsOnCorruption runs the same sweep through
// DecompressBestEffort: it must never panic, never return
// shape-inconsistent data, and any partial result must come with a
// *CorruptionError that names what was lost.
func TestBestEffortNeverPanicsOnCorruption(t *testing.T) {
	f := smoothField()
	p := DPZS()
	p.TVE = NinesTVE(7)
	c, err := Compress(f.Data, f.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.K < 2 {
		t.Fatalf("sweep stream has K=%d, need >= 2", c.Stats.K)
	}
	try := func(buf []byte, label string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("DecompressBestEffort panicked on %s: %v", label, r)
			}
		}()
		out, dims, err := DecompressBestEffort(buf, 1)
		if out != nil {
			checkShape(t, label, out, dims)
		}
		if out != nil && err != nil {
			// Partial data must be accompanied by a corruption report with
			// a meaningful recovered rank.
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("%s: partial data with non-corruption error %v", label, err)
			}
			if ce.RecoveredRank < 1 || ce.RecoveredRank > ce.StoredRank {
				t.Fatalf("%s: implausible recovered rank %d of %d", label, ce.RecoveredRank, ce.StoredRank)
			}
			if len(ce.Sections) == 0 {
				t.Fatalf("%s: corruption error names no sections", label)
			}
		}
	}

	// Fewer samples than the plain-Decompress sweep: most faults here lead
	// to a successful (and costly) partial reconstruction, not a cheap
	// parse error.
	integrity.ForEach(c.Bytes, 128, func(fault integrity.Fault, corrupted []byte) {
		try(corrupted, fault.String())
	})

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(4096)
		buf := make([]byte, n)
		rng.Read(buf)
		if n >= 5 {
			copy(buf, magic[:])
			buf[4] = formatVersion
		}
		try(buf, "garbage trial")
	}
}

// TestVerifyNeverPanicsOnCorruption sweeps Verify as well: the integrity
// checker itself must be safe on arbitrary damage.
func TestVerifyNeverPanicsOnCorruption(t *testing.T) {
	f := smoothField()
	c, err := Compress(f.Data, f.Dims, DPZL())
	if err != nil {
		t.Fatal(err)
	}
	integrity.ForEach(c.Bytes, 512, func(fault integrity.Fault, corrupted []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Verify panicked on %s: %v", fault, r)
			}
		}()
		_ = Verify(corrupted)
	})
}

// sameDecode reports whether two decode outcomes agree: both failed, or
// both returned bit-identical values.
func sameDecode(a []float64, aerr error, b []float64, berr error) bool {
	if (aerr != nil) != (berr != nil) {
		return false
	}
	if aerr != nil {
		return true
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDamageVerdictsAgreeAcrossEntryPoints sweeps the fault harness over
// a v2 and a v3 stream. Every decode entry point is the same map from
// the leading rank sections to values, so for each fault:
//   - the full decode, the rank-k decode and Progressive.Decode(k) all
//     fail or all return the same bits, and so do the rank-r preview and
//     Progressive.Decode(r) (after which Decode(k) extends the same
//     Progressive);
//   - DecompressBestEffort names exactly the sections Verify names;
//   - a nil from Verify means Decompress succeeds.
func TestDamageVerdictsAgreeAcrossEntryPoints(t *testing.T) {
	// An eighth of smoothField's size keeps the sweep cheap under -race
	// while k stays well above 2.
	f := dataset.CESM("FLDSC", 32, 64, 11)
	for _, noIndex := range []bool{true, false} {
		p := DPZS()
		p.TVE = NinesTVE(7)
		p.NoIndex = noIndex
		c, err := Compress(f.Data, f.Dims, p)
		if err != nil {
			t.Fatal(err)
		}
		k := c.Stats.K
		r := max(1, k/2)
		version := c.Bytes[4]
		integrity.ForEach(c.Bytes, 64, func(fault integrity.Fault, buf []byte) {
			label := fmt.Sprintf("v%d %s", version, fault)
			full, _, fullErr := Decompress(context.Background(), buf, 1, 0, nil)
			rankK, _, rankKErr := Decompress(context.Background(), buf, 2, k, nil)
			prev, _, prevErr := Decompress(context.Background(), buf, 1, r, nil)
			var progR, progK []float64
			progRErr, progKErr := error(nil), error(nil)
			if pr, err := NewProgressive(buf, 1); err != nil {
				progRErr, progKErr = err, err
			} else {
				progR, _, _, progRErr = pr.Decode(r)
				progK, _, _, progKErr = pr.Decode(k)
			}
			if !sameDecode(full, fullErr, rankK, rankKErr) {
				t.Errorf("%s: Decompress (%v) and rank-%d decode (%v) disagree", label, fullErr, k, rankKErr)
			}
			if !sameDecode(full, fullErr, progK, progKErr) {
				t.Errorf("%s: Decompress (%v) and Progressive.Decode(%d) (%v) disagree", label, fullErr, k, progKErr)
			}
			if !sameDecode(prev, prevErr, progR, progRErr) {
				t.Errorf("%s: rank-%d decode (%v) and Progressive.Decode(%d) (%v) disagree", label, r, prevErr, r, progRErr)
			}

			verr := Verify(buf)
			if verr == nil && fullErr != nil {
				t.Errorf("%s: Verify passed a stream Decompress rejects (%v)", label, fullErr)
			}
			_, _, berr := DecompressBestEffort(buf, 1)
			var vce, bce *CorruptionError
			vc, bc := errors.As(verr, &vce), errors.As(berr, &bce)
			switch {
			case (verr == nil) != (berr == nil) || vc != bc:
				t.Errorf("%s: Verify = %v, DecompressBestEffort = %v", label, verr, berr)
			case vc && !slices.Equal(vce.Sections, bce.Sections):
				t.Errorf("%s: Verify names %v, DecompressBestEffort names %v", label, vce.Sections, bce.Sections)
			}
		})
	}
}
