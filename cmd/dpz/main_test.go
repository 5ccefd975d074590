package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"dpz"
	"dpz/internal/dataset"
)

func TestParseDims(t *testing.T) {
	dims, err := parseDims("1800x3600")
	if err != nil || len(dims) != 2 || dims[0] != 1800 || dims[1] != 3600 {
		t.Fatalf("parseDims = %v, %v", dims, err)
	}
	dims, err = parseDims("128X128X128")
	if err != nil || len(dims) != 3 || dims[2] != 128 {
		t.Fatalf("case-insensitive parse = %v, %v", dims, err)
	}
	if _, err := parseDims(""); err == nil {
		t.Fatal("expected error for empty dims")
	}
	if _, err := parseDims("10x-5"); err == nil {
		t.Fatal("expected error for negative dim")
	}
	if _, err := parseDims("10xfoo"); err == nil {
		t.Fatal("expected error for non-numeric dim")
	}
	if _, err := parseDims("1x2x3x4x5"); err == nil {
		t.Fatal("expected error for too many dims")
	}
}

func TestBuildOptions(t *testing.T) {
	o, err := buildOptions("loose", "knee", 4, "polyn", "on", true, false, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if o.P != 1e-3 || o.IndexBytes != dpz.Index1Byte {
		t.Fatalf("loose scheme = %+v", o)
	}
	if o.Selection != dpz.KneePoint || o.Fit != dpz.FitPoly {
		t.Fatalf("selection/fit = %+v", o)
	}
	if !o.UseSampling || o.Workers != 3 {
		t.Fatalf("sampling/workers = %+v", o)
	}
	if o.ZLevel != 6 {
		t.Fatalf("zlevel = %+v", o)
	}
	if o.TVE != dpz.Nines(4) {
		t.Fatalf("TVE = %v", o.TVE)
	}
	if o.NoIndex {
		t.Fatalf("index on produced NoIndex: %+v", o)
	}
	o, err = buildOptions("loose", "tve", 4, "1d", "off", false, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !o.NoIndex {
		t.Fatalf("index off not threaded: %+v", o)
	}

	if _, err := buildOptions("medium", "tve", 5, "1d", "on", false, false, 0, 0); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
	if _, err := buildOptions("strict", "best", 5, "1d", "on", false, false, 0, 0); err == nil {
		t.Fatal("expected error for unknown selection")
	}
	if _, err := buildOptions("strict", "tve", 0, "1d", "on", false, false, 0, 0); err == nil {
		t.Fatal("expected error for zero nines")
	}
	if _, err := buildOptions("strict", "tve", 5, "cubic", "on", false, false, 0, 0); err == nil {
		t.Fatal("expected error for unknown fit")
	}
	if _, err := buildOptions("strict", "tve", 5, "1d", "on", false, false, 0, 10); err == nil {
		t.Fatal("expected error for out-of-range zlevel")
	}
	if _, err := buildOptions("strict", "tve", 5, "1d", "maybe", false, false, 0, 0); err == nil {
		t.Fatal("expected error for unknown index mode")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	f := dataset.CESM("FLDSC", 48, 96, 131)
	orig := filepath.Join(dir, "f.f32")
	if err := dataset.WriteRawFloat32(f, orig); err != nil {
		t.Fatal(err)
	}
	comp := filepath.Join(dir, "f.dpz")
	recon := filepath.Join(dir, "r.f32")

	if err := run([]string{"-z", "-dims", "48x96", "-scheme", "strict", "-tve", "4", "-verify", orig, comp}, io.Discard); err != nil {
		t.Fatalf("compress: %v", err)
	}
	if err := run([]string{"-d", comp, recon}, io.Discard); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	got, err := dataset.ReadRawFloat32(recon, f.Dims)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != f.Len() {
		t.Fatalf("recon has %d values", len(got.Data))
	}
	if err := run([]string{"-estimate", "-dims", "48x96", orig}, io.Discard); err != nil {
		t.Fatalf("estimate: %v", err)
	}
	// Progressive preview: -ranks decodes only the leading components.
	if err := run([]string{"-d", "-ranks", "1", comp, recon}, io.Discard); err != nil {
		t.Fatalf("rank-1 preview: %v", err)
	}
	preview, err := dataset.ReadRawFloat32(recon, f.Dims)
	if err != nil {
		t.Fatal(err)
	}
	if len(preview.Data) != f.Len() {
		t.Fatalf("preview has %d values", len(preview.Data))
	}
	// Index opt-out: -index off emits a v2 stream with no index section.
	compV2 := filepath.Join(dir, "v2.dpz")
	if err := run([]string{"-z", "-index", "off", "-dims", "48x96", "-tve", "4", orig, compV2}, io.Discard); err != nil {
		t.Fatalf("compress -index off: %v", err)
	}
	v2buf, err := os.ReadFile(compV2)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := dpz.Stat(v2buf); err != nil || info.Version != 2 || info.HasIndex {
		t.Fatalf("-index off stream: info %+v, err %v", info, err)
	}
	// Error paths.
	if err := run([]string{orig}, io.Discard); err == nil {
		t.Fatal("expected mode error")
	}
	if err := run([]string{"-z", orig, comp}, io.Discard); err == nil {
		t.Fatal("expected missing -dims error")
	}
	if err := run([]string{"-d", orig, recon}, io.Discard); err == nil {
		t.Fatal("expected decode error for raw file")
	}
}

func TestRunBestEffortDecode(t *testing.T) {
	dir := t.TempDir()
	f := dataset.CESM("FLDSC", 48, 96, 131)
	orig := filepath.Join(dir, "f.f32")
	if err := dataset.WriteRawFloat32(f, orig); err != nil {
		t.Fatal(err)
	}
	opts := dpz.StrictOptions()
	opts.TVE = dpz.Nines(7)
	res, err := dpz.CompressFloat64(f.Data, f.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.K < 2 {
		t.Fatalf("need K >= 2, got %d", res.Stats.K)
	}
	// Damage the final data section's payload (the trailing retrieval
	// index is damage-tolerant by design, so aim just before it): strict
	// decode must fail, the best-effort path must still write a
	// reduced-rank reconstruction.
	info, err := dpz.Stat(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	idxBytes := info.Sections[len(info.Sections)-1].CompressedBytes + 20
	bad := append([]byte(nil), res.Data...)
	bad[len(bad)-idxBytes-8] ^= 0x20
	badPath := filepath.Join(dir, "bad.dpz")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	recon := filepath.Join(dir, "r.f32")
	if err := run([]string{"-d", badPath, recon}, io.Discard); err == nil {
		t.Fatal("strict decode accepted a corrupt stream")
	}
	if err := run([]string{"-d", "-best-effort", badPath, recon}, io.Discard); err != nil {
		t.Fatalf("best-effort decode: %v", err)
	}
	got, err := dataset.ReadRawFloat32(recon, f.Dims)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != f.Len() {
		t.Fatalf("recon has %d values", len(got.Data))
	}
}
