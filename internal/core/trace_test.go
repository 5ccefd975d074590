package core

import (
	"context"
	"math/bits"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpz/internal/dataset"
	"dpz/internal/metrics"
)

// spanNames lists a trace's spans as name/parent, in the order they
// ended.
func spanNames(tr metrics.Trace) string {
	var names []string
	for _, s := range tr {
		names = append(names, s.Name+"/"+s.Parent)
	}
	return strings.Join(names, " ")
}

// clockReadings is the injected clock of TestStageTrace: its n-th
// reading since the last reset is 2^n ns, so a span's duration
// 2^e − 2^s names the readings s and e that bound it.
var clockReadings atomic.Int64

// interval returns the readings that bound a span of duration d, or
// ok=false when d is not of the form 2^e − 2^s with e > s.
func interval(d time.Duration) (s, e int, ok bool) {
	s, e = bits.TrailingZeros64(uint64(d)), bits.Len64(uint64(d))
	return s, e, d > 0 && d == time.Duration(1)<<e-time.Duration(1)<<s
}

// checkSpanTree checks that tr is a tree that counts no time twice:
// every span lies inside the one span its parent names (inside total
// for a top-level span), and the spans under one parent are disjoint.
func checkSpanTree(t *testing.T, name string, tr metrics.Trace) {
	t.Helper()
	type span struct{ s, e int }
	byName := map[string][]span{}
	for _, sp := range tr {
		s, e, ok := interval(sp.D)
		if !ok {
			t.Errorf("%s: span %s took %v, not the time between two clock readings", name, sp.Name, sp.D)
			return
		}
		byName[sp.Name] = append(byName[sp.Name], span{s, e})
	}
	under := map[string][]span{}
	for _, sp := range tr {
		if sp.Name == "total" {
			continue
		}
		parent := sp.Parent
		if parent == "" {
			parent = "total"
		}
		ps := byName[parent]
		if len(ps) != 1 {
			t.Errorf("%s: span %s is under %s, which the trace holds %d times", name, sp.Name, parent, len(ps))
			continue
		}
		s, e, _ := interval(sp.D)
		if s < ps[0].s || e > ps[0].e {
			t.Errorf("%s: span %s [%d, %d] is not inside %s [%d, %d]", name, sp.Name, s, e, parent, ps[0].s, ps[0].e)
		}
		for _, o := range under[parent] {
			if s < o.e && o.s < e {
				t.Errorf("%s: span %s [%d, %d] overlaps a sibling [%d, %d] under %s", name, sp.Name, s, e, o.s, o.e, parent)
			}
		}
		under[parent] = append(under[parent], span{s, e})
	}
}

// TestStageTrace pins the span tree of every entry point that records
// one, under an injected clock whose readings bound each span exactly:
// each span's name, parent and order, and that the tree counts no time
// twice.
func TestStageTrace(t *testing.T) {
	defer metrics.SetClock(func() time.Time {
		n := clockReadings.Add(1)
		if n > 62 {
			t.Error("more than 62 clock readings in one call")
		}
		return time.Unix(0, 1<<n)
	})()

	f := smoothField()
	compress := func(p Params) *Compressed {
		t.Helper()
		clockReadings.Store(0)
		c, err := Compress(f.Data, f.Dims, p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	knee := DPZL()
	knee.Selection = KneePoint
	sampled := DPZL()
	sampled.UseSampling = true
	diag := DPZL()
	diag.CollectDiagnostics = true
	off := DPZL()
	off.Standardize = StandardizeOff
	// Basis reuse: the first compression publishes the basis the second
	// one is offered. The field accepts its own basis; its guard rejects
	// that of the same field under another seed, so it fits cold.
	reuse := DPZL()
	reuse.Basis = &BasisExchange{}
	cold := compress(reuse)
	reuse.Basis = &BasisExchange{Candidate: reuse.Basis.Fitted}
	accept := compress(reuse)
	g := dataset.CESM("FLDSC", 90, 180, 12)
	reuse.Basis = &BasisExchange{}
	clockReadings.Store(0)
	if _, err := Compress(g.Data, g.Dims, reuse); err != nil {
		t.Fatal(err)
	}
	reuse.Basis = &BasisExchange{Candidate: reuse.Basis.Fitted}
	reject := compress(reuse)
	if a, r := accept.Stats.BasisDecision.String(), reject.Stats.BasisDecision.String(); a != "accept" || r != "cold" {
		t.Fatalf("reuse decisions %s and %s, want accept and cold", a, r)
	}

	stream := compress(DPZS())
	decode := func(rank int) metrics.Trace {
		var tr metrics.Trace
		clockReadings.Store(0)
		if _, _, err := Decompress(context.Background(), stream.Bytes, 0, rank, &tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	prog, err := NewProgressive(stream.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	progressive := func(rank int) metrics.Trace {
		var tr metrics.Trace
		clockReadings.Store(0)
		if _, _, _, err := prog.DecodeContext(context.Background(), rank, &tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	const (
		stage1 = "decompose/ dct/ "
		stage3 = " pca/ quant/ pack/zlib deflate/zlib zlib/ total/"
		eig    = "reduce/eig values/eig vectors/eig eig/pca"
		fit    = "gram/pca vif/pca " + eig + " project/pca"
		decomp = "inflate/ inflate/ dequant/ recompose/ total/"
	)
	for _, c := range []struct {
		name string
		tr   metrics.Trace
		want string
	}{
		{"default", compress(DPZL()).Stats.Trace, stage1 + fit + stage3},
		{"knee", compress(knee).Stats.Trace, stage1 + fit + stage3},
		{"standardize off", compress(off).Stats.Trace, stage1 + "gram/pca " + eig + " project/pca" + stage3},
		{"sampled", compress(sampled).Stats.Trace, stage1 + "sampling/pca gram/pca " + eig + " project/pca" + stage3},
		{"reuse cold", cold.Stats.Trace, stage1 + "vif/pca gram/pca " + eig + " project/pca" + stage3},
		{"reuse accept", accept.Stats.Trace, stage1 + "vif/pca guard/pca" + stage3},
		{"reuse reject", reject.Stats.Trace, stage1 + "vif/pca guard/pca gram/pca " + eig + " project/pca" + stage3},
		{"diagnostics", compress(diag).Stats.Trace, stage1 + fit + stage3},
		{"full decode", decode(0), decomp},
		{"preview", decode(2), decomp},
		{"progressive", progressive(2), "inflate/ dequant/ recompose/ total/"},
		{"progressive, ranks cached", progressive(1), "recompose/ total/"},
	} {
		if got := spanNames(c.tr); got != c.want {
			t.Errorf("%s: spans\n  %s\nwant\n  %s", c.name, got, c.want)
		}
		checkSpanTree(t, c.name, c.tr)
	}
}
