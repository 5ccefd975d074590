package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeReport(t *testing.T, dir string, rep perfReport) string {
	t.Helper()
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_base.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// stages is a stage_ns breakdown in nanoseconds.
type stages = map[string]time.Duration

func benchRecord(name string, workers int, ns int64, stages stages) perfRecord {
	return perfRecord{Name: name, Workers: workers, NsPerOp: ns, StageNs: stages}
}

func TestGatePassesWithinBudget(t *testing.T) {
	base := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_000_000_000, stages{"pca": 700_000_000, "total": 1_000_000_000}),
	}}
	cur := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_050_000_000, stages{"pca": 730_000_000, "total": 1_050_000_000}),
	}}
	path := writeReport(t, t.TempDir(), base)
	if err := compareBaseline(path, cur, 10, io.Discard); err != nil {
		t.Fatalf("5%% slowdown under a 10%% budget must pass: %v", err)
	}
}

func TestGateFailsOnNsPerOpRegression(t *testing.T) {
	base := perfReport{Records: []perfRecord{benchRecord("compress", 1, 1_000_000_000, nil)}}
	cur := perfReport{Records: []perfRecord{benchRecord("compress", 1, 1_300_000_000, nil)}}
	path := writeReport(t, t.TempDir(), base)
	err := compareBaseline(path, cur, 10, io.Discard)
	if err == nil {
		t.Fatal("30% ns/op regression must fail a 10% gate")
	}
	if !strings.Contains(err.Error(), "compress w1 ns/op") {
		t.Fatalf("error should name the offender, got: %v", err)
	}
}

func TestGateFailsOnStageRegression(t *testing.T) {
	// ns/op flat, but the pca stage blew up — the exact regression shape
	// the gate exists for.
	base := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_000_000_000, stages{"pca": 500_000_000, "total": 1_000_000_000}),
	}}
	cur := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_000_000_000, stages{"pca": 900_000_000, "total": 1_000_000_000}),
	}}
	path := writeReport(t, t.TempDir(), base)
	err := compareBaseline(path, cur, 10, io.Discard)
	if err == nil {
		t.Fatal("80% pca-stage regression must fail a 10% gate")
	}
	if !strings.Contains(err.Error(), "stage pca") {
		t.Fatalf("error should name the pca stage, got: %v", err)
	}
}

func TestGateIgnoresNoiseStagesAndNewRecords(t *testing.T) {
	base := perfReport{Records: []perfRecord{
		// decompose is below the 50ms floor: tripling it is clock noise.
		benchRecord("compress", 1, 1_000_000_000, stages{"decompose": 1_000_000, "total": 1_000_000_000}),
	}}
	cur := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_000_000_000, stages{"decompose": 3_000_000, "total": 1_000_000_000}),
		benchRecord("compress-new", 1, 900_000_000, nil), // new in this revision
	}}
	path := writeReport(t, t.TempDir(), base)
	if err := compareBaseline(path, cur, 10, io.Discard); err != nil {
		t.Fatalf("sub-floor stages and unmatched records must not gate: %v", err)
	}
}

// TestGateNamesDroppedRecords: a baseline record the current run lacks
// is not gated, but the gate names it once, so a deleted record cannot
// vanish without a word.
func TestGateNamesDroppedRecords(t *testing.T) {
	base := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_000_000_000, nil),
		benchRecord("compress-old", 1, 1_000_000_000, nil),
		benchRecord("compress-old", 2, 1_000_000_000, nil),
	}}
	cur := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_000_000_000, nil),
		benchRecord("compress-old", 2, 1_000_000_000, nil),
	}}
	var out strings.Builder
	if err := compareBaseline(writeReport(t, t.TempDir(), base), cur, 10, &out); err != nil {
		t.Fatalf("a dropped record must not fail the gate: %v", err)
	}
	if got := strings.Count(out.String(), "dropped: "); got != 1 {
		t.Fatalf("want one dropped line, got %d:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "dropped: compress-old w1\n") {
		t.Fatalf("dropped line must name the record and its workers:\n%s", out.String())
	}
}

// TestGateTreatsStagesMissingFromBaselineAsNew: a BENCH file written
// before the pca stage was split carries no vif/gram/eig/project
// entries, and the gate must not read their absence as a zero-time
// baseline.
func TestGateTreatsStagesMissingFromBaselineAsNew(t *testing.T) {
	dir := t.TempDir()
	old := `{"records":[{"name":"compress","workers":1,"ns_per_op":1000000000,` +
		`"stage_ns":{"pca":600000000,"total":1000000000}}]}`
	path := filepath.Join(dir, "BENCH_old.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_000_000_000,
			stages{"pca": 600_000_000, "vif": 200_000_000, "gram": 150_000_000, "eig": 250_000_000,
				"project": 100_000_000, "total": 1_000_000_000}),
	}}
	var out strings.Builder
	if err := compareBaseline(path, cur, 10, &out); err != nil {
		t.Fatalf("stages new in this revision must not gate: %v", err)
	}
	for _, stage := range []string{"vif", "gram", "eig", "project"} {
		if strings.Contains(out.String(), "stage "+stage) {
			t.Fatalf("new stage %s was compared against an absent baseline:\n%s", stage, out.String())
		}
	}
	// Once the baseline has them, they are gated like any other stage.
	base := perfReport{Records: []perfRecord{
		benchRecord("compress", 1, 1_000_000_000,
			stages{"pca": 600_000_000, "vif": 100_000_000, "project": 100_000_000, "total": 1_000_000_000}),
	}}
	err := compareBaseline(writeReport(t, dir, base), cur, 10, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "stage vif") {
		t.Fatalf("a doubled vif stage must fail the gate, got %v", err)
	}
	base.Records[0].StageNs["vif"] = 200_000_000
	base.Records[0].StageNs["eig"] = 100_000_000
	err = compareBaseline(writeReport(t, dir, base), cur, 10, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "stage eig") {
		t.Fatalf("a 2.5x eig stage must fail the gate, got %v", err)
	}
}

func TestGateWorstOffenderSortsFirst(t *testing.T) {
	base := &perfReport{Records: []perfRecord{
		benchRecord("a", 1, 1_000, nil),
		benchRecord("b", 1, 1_000, nil),
	}}
	cur := &perfReport{Records: []perfRecord{
		benchRecord("a", 1, 1_100, nil),
		benchRecord("b", 1, 2_000, nil),
	}}
	deltas := gateDeltas(base, cur)
	if len(deltas) != 2 || deltas[0].Name != "b w1 ns/op" {
		t.Fatalf("worst offender must sort first, got %+v", deltas)
	}
}

func TestGateMissingBaselineFile(t *testing.T) {
	err := compareBaseline(filepath.Join(t.TempDir(), "nope.json"), perfReport{}, 10, io.Discard)
	if err == nil {
		t.Fatal("missing baseline file must error")
	}
}

func qualityRecord(name string, cr, psnr float64, k int, std bool) perfRecord {
	r := benchRecord(name, 1, 1_000_000_000, nil)
	r.Quality = &quality{CR: cr, PSNR: psnr, K: k, Standardized: std}
	return r
}

// TestGateQualityLine: a change to k or the standardize bit within the
// CR and PSNR bounds passes, but is named on a "quality:" line.
func TestGateQualityLine(t *testing.T) {
	base := perfReport{Records: []perfRecord{
		qualityRecord("compress", 2.40, 60.0, 147, false),
		qualityRecord("compress-lowrank", 8.0, 70.0, 40, false),
	}}
	cur := perfReport{Records: []perfRecord{
		qualityRecord("compress", 2.39, 59.95, 148, true),
		qualityRecord("compress-lowrank", 8.0, 70.0, 40, false),
	}}
	var out strings.Builder
	if err := compareBaseline(writeReport(t, t.TempDir(), base), cur, 10, &out); err != nil {
		t.Fatalf("a change within the quality bounds must pass: %v", err)
	}
	if got := strings.Count(out.String(), "quality: "); got != 1 {
		t.Fatalf("want one quality line, got %d:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "quality: compress w1 cr 2.4000 -> 2.3900") ||
		!strings.Contains(out.String(), "k 147 -> 148, standardized false -> true  ok") {
		t.Fatalf("quality line must name the record and each change:\n%s", out.String())
	}
}

// TestGateFailsOnQualityLoss: CR falling by more than 1%, or PSNR by
// more than 0.1 dB, fails the gate even when no timing regressed.
func TestGateFailsOnQualityLoss(t *testing.T) {
	for name, cur := range map[string]perfRecord{
		"cr":   qualityRecord("compress", 2.37, 60.0, 147, false),
		"psnr": qualityRecord("compress", 2.40, 59.85, 147, false),
	} {
		base := perfReport{Records: []perfRecord{qualityRecord("compress", 2.40, 60.0, 147, false)}}
		var out strings.Builder
		err := compareBaseline(writeReport(t, t.TempDir(), base), perfReport{Records: []perfRecord{cur}}, 10, &out)
		if err == nil {
			t.Fatalf("%s loss must fail the gate:\n%s", name, out.String())
		}
		if !strings.Contains(err.Error(), "compress w1") || !strings.Contains(out.String(), "QUALITY LOSS") {
			t.Fatalf("%s: error and quality line must name the record: %v\n%s", name, err, out.String())
		}
	}
}

// TestGateSkipsBaselineWithoutQuality: a baseline written before records
// carried quality gates timing only.
func TestGateSkipsBaselineWithoutQuality(t *testing.T) {
	base := perfReport{Records: []perfRecord{benchRecord("compress", 1, 1_000_000_000, nil)}}
	cur := perfReport{Records: []perfRecord{qualityRecord("compress", 1.0, 10.0, 1, true)}}
	var out strings.Builder
	if err := compareBaseline(writeReport(t, t.TempDir(), base), cur, 10, &out); err != nil {
		t.Fatalf("a baseline without quality must not gate quality: %v", err)
	}
	if strings.Contains(out.String(), "quality:") {
		t.Fatalf("no quality line expected:\n%s", out.String())
	}
}

// TestGateQualityBytes: a record whose output bytes changed at the same
// CR, PSNR and k is named with its bytes_out; a baseline written before
// quality carried byte counts prints no line for them alone.
func TestGateQualityBytes(t *testing.T) {
	withBytes := func(in, out int) perfRecord {
		r := qualityRecord("compress", 2.40, 60.0, 147, false)
		r.Quality.BytesIn, r.Quality.BytesOut = in, out
		return r
	}
	base := perfReport{Records: []perfRecord{withBytes(6_480_000, 2_700_000)}}
	cur := perfReport{Records: []perfRecord{withBytes(6_480_000, 2_690_000)}}
	var out strings.Builder
	if err := compareBaseline(writeReport(t, t.TempDir(), base), cur, 10, &out); err != nil {
		t.Fatalf("a smaller stream must pass: %v", err)
	}
	if !strings.Contains(out.String(), "quality: compress w1 cr 2.4000 -> 2.4000, psnr 60.000 -> 60.000 dB, bytes_out 2700000 -> 2690000") {
		t.Fatalf("quality line must name the byte change:\n%s", out.String())
	}

	old := perfReport{Records: []perfRecord{withBytes(0, 0)}}
	out.Reset()
	if err := compareBaseline(writeReport(t, t.TempDir(), old), cur, 10, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "quality:") {
		t.Fatalf("byte counts the baseline lacks are not a change:\n%s", out.String())
	}
}

// TestGateHoldsErrors: max abs error and θ print on the quality line
// and fail the gate when either rises more than 1% over a baseline that
// carries them; a baseline without them gates neither.
func TestGateHoldsErrors(t *testing.T) {
	withErrs := func(maxAbs, theta float64) perfRecord {
		r := qualityRecord("compress", 2.40, 60.0, 147, false)
		r.Quality.MaxAbsErr, r.Quality.Theta = maxAbs, theta
		return r
	}
	base := perfReport{Records: []perfRecord{withErrs(0.02, 1e-4)}}
	for _, c := range []struct {
		name string
		cur  perfRecord
		fail bool
	}{
		{"same", withErrs(0.02, 1e-4), false},
		{"within", withErrs(0.0201, 1.005e-4), false},
		{"max abs", withErrs(0.0203, 1e-4), true},
		{"theta", withErrs(0.02, 1.02e-4), true},
	} {
		var out strings.Builder
		err := compareBaseline(writeReport(t, t.TempDir(), base), perfReport{Records: []perfRecord{c.cur}}, 10, &out)
		if (err != nil) != c.fail {
			t.Fatalf("%s: err %v, want failure %v\n%s", c.name, err, c.fail, out.String())
		}
		if c.name != "same" && !strings.Contains(out.String(), "dB, max_abs_err 0.02 -> ") {
			t.Fatalf("%s: quality line must name the errors:\n%s", c.name, out.String())
		}
	}

	old := perfReport{Records: []perfRecord{qualityRecord("compress", 2.40, 60.0, 147, false)}}
	var out strings.Builder
	if err := compareBaseline(writeReport(t, t.TempDir(), old), perfReport{Records: []perfRecord{withErrs(5, 1)}}, 10, &out); err != nil {
		t.Fatalf("a baseline without errors must not gate them: %v", err)
	}
	if strings.Contains(out.String(), "quality:") {
		t.Fatalf("errors the baseline lacks are not a change:\n%s", out.String())
	}
}

// TestGateHoldsArchiveQuality: the tiled and batch records carry
// archive-wide quality, and the gate holds it like a stream's: a CR or
// PSNR loss beyond the bounds fails, naming the record.
func TestGateHoldsArchiveQuality(t *testing.T) {
	archive := func(name string, workers int, cr, psnr float64) perfRecord {
		r := qualityRecord(name, cr, psnr, 1200, false)
		r.Workers = workers
		return r
	}
	base := perfReport{Records: []perfRecord{
		archive("tiled", 2, 2.30, 58.0),
		archive("batch", 1, 9.50, 70.0),
		archive("batch-reuse", 1, 9.40, 69.9),
	}}
	for _, c := range []struct {
		lost string
		cur  []perfRecord
	}{
		{"tiled w2", []perfRecord{archive("tiled", 2, 2.20, 58.0), archive("batch", 1, 9.50, 70.0), archive("batch-reuse", 1, 9.40, 69.9)}},
		{"batch-reuse w1", []perfRecord{archive("tiled", 2, 2.30, 58.0), archive("batch", 1, 9.50, 70.0), archive("batch-reuse", 1, 9.40, 69.7)}},
	} {
		var out strings.Builder
		err := compareBaseline(writeReport(t, t.TempDir(), base), perfReport{Records: c.cur}, 10, &out)
		if err == nil || !strings.Contains(err.Error(), c.lost) {
			t.Fatalf("%s: archive quality loss must fail the gate naming the record: %v\n%s", c.lost, err, out.String())
		}
		if got := strings.Count(out.String(), "QUALITY LOSS"); got != 1 {
			t.Fatalf("%s: want one QUALITY LOSS line, got %d:\n%s", c.lost, got, out.String())
		}
	}
}

// TestGateRefusesReportsOfDifferentSize: a scale-0.1 report gated
// against a scale-1 baseline would print its timings as huge speedups;
// the gate fails instead, naming both scales and dims.
func TestGateRefusesReportsOfDifferentSize(t *testing.T) {
	rec := benchRecord("compress", 1, 1_000_000_000, nil)
	base := perfReport{Scale: 1, Dims: []int{900, 1800}, Records: []perfRecord{rec}}
	for name, cur := range map[string]perfReport{
		"scale": {Scale: 0.1, Dims: []int{90, 180}, Records: []perfRecord{rec}},
		"dims":  {Scale: 1, Dims: []int{1800, 900}, Records: []perfRecord{rec}},
	} {
		var out strings.Builder
		err := compareBaseline(writeReport(t, t.TempDir(), base), cur, 10, &out)
		if err == nil {
			t.Fatalf("%s: a report of different size passed the gate:\n%s", name, out.String())
		}
		for _, want := range []string{"[900 1800]", fmt.Sprint(cur.Dims), fmt.Sprintf("scale %g", cur.Scale), "scale 1 "} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", name, err, want)
			}
		}
	}
	var out strings.Builder
	if err := compareBaseline(writeReport(t, t.TempDir(), base), base, 10, &out); err != nil {
		t.Fatalf("a report of the baseline's size must be gated: %v", err)
	}
}

// TestGateReadsStructShapedBaseline: BENCH_9cf3a4e5325b.json was written
// when stage_ns was a struct with fixed keys. It still loads, and a
// map-shaped report of its scale and dims is gated against it stage by
// stage: every baseline stage at or above the floor is compared under
// its own name, and a regression inside one stage fails naming it.
func TestGateReadsStructShapedBaseline(t *testing.T) {
	const path = "../../BENCH_9cf3a4e5325b.json"
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	// A second parse is the current report: its stage_ns maps are its
	// own, so the one mutated below leaves the baseline alone.
	cur, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	var gated []string
	for _, r := range cur.Records {
		for stage, d := range r.StageNs {
			if d >= gateStageFloorNs {
				gated = append(gated, fmt.Sprintf("%s w%d stage %s", r.Name, r.Workers, stage))
			}
		}
	}
	if got := base.Records[0].StageNs["pca"]; base.Records[0].Name != "compress" || got != 2493935707 {
		t.Fatalf("baseline compress w1 pca = %v, want the recorded 2493935707 ns", got)
	}
	var out strings.Builder
	if err := compareBaseline(path, *cur, 10, &out); err != nil {
		t.Fatalf("the baseline gated against itself failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "dropped:") {
		t.Fatalf("no record was dropped:\n%s", out.String())
	}
	for _, id := range gated {
		if !strings.Contains(out.String(), "gate "+id+" ") {
			t.Errorf("stage %s was not gated:\n%s", id, out.String())
		}
	}

	cur.Records[0].StageNs["eig"] *= 2
	err = compareBaseline(path, *cur, 10, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "compress w1 stage eig") {
		t.Fatalf("a doubled eig stage must fail the gate naming it, got %v", err)
	}
}
