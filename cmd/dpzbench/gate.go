package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// The -baseline regression gate: compare a fresh perf report against a
// recorded BENCH_<rev>.json and fail (non-zero exit) when any matching
// record slowed down by more than -max-regress percent, or a compress
// record's stream lost CR or PSNR beyond the quality bounds. The gate compares
// the benchmark's ns/op and, when both reports carry a stage breakdown,
// each per-stage wall time — so a regression hiding inside one stage
// (the PCA wall this suite exists to watch, or the recompose GEMM on the
// decode side) trips the gate even when the other stages mask it in the
// total.

// gateStageFloorNs is the baseline stage time below which a stage is not
// gated: percentage deltas of sub-50ms stages are clock noise, not
// regressions.
const gateStageFloorNs = 50_000_000

// Quality bounds: a compress record's CR may not fall by more than
// gateCRDropPct percent of the baseline's, nor its PSNR by more than
// gatePSNRDropDB.
const (
	gateCRDropPct  = 1.0
	gatePSNRDropDB = 0.1
)

// gateDelta is one gated comparison's outcome.
type gateDelta struct {
	Name    string  // "<record> w<workers> <metric>"
	Old     int64   // baseline nanoseconds
	New     int64   // current nanoseconds
	Percent float64 // (new-old)/old * 100
}

// loadBaseline reads a previously written BENCH_<rev>.json.
func loadBaseline(path string) (*perfReport, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep perfReport
	if err := json.Unmarshal(doc, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rep, nil
}

// compareBaseline gates report against the baseline at path: every
// record present in both (matched by name + workers) must not have
// slowed by more than maxRegress percent, on ns/op or on any sufficiently
// large stage. Faster-or-equal records pass silently. Records new in the
// current report are not gated (suites grow across revisions); records
// the current report dropped are not gated either, but each is named on
// a "dropped: <name> w<workers>" line so a removal never passes
// unnoticed. Reports of different size are not compared at all: a scale
// or dims that differs from the baseline's is an error naming both. The
// returned error lists every offender.
func compareBaseline(path string, report perfReport, maxRegress float64, out io.Writer) error {
	base, err := loadBaseline(path)
	if err != nil {
		return err
	}
	//dpzlint:ignore floateq both scales are the parsed -scale flag, so equal runs compare equal exactly
	if base.Scale != report.Scale || !slices.Equal(base.Dims, report.Dims) {
		return fmt.Errorf("report is scale %g dims %v, baseline %s is scale %g dims %v: records of different size are not comparable",
			report.Scale, report.Dims, path, base.Scale, base.Dims)
	}
	for _, id := range droppedRecords(base, &report) {
		fmt.Fprintf(out, "dropped: %s\n", id)
	}
	lost := qualityLosses(base, &report, out)
	deltas := gateDeltas(base, &report)
	var offenders []gateDelta
	for _, d := range deltas {
		status := "ok"
		if d.Percent > maxRegress {
			status = "REGRESSION"
			offenders = append(offenders, d)
		}
		fmt.Fprintf(out, "gate %-40s %12d -> %12d ns  %+7.1f%%  %s\n",
			d.Name, d.Old, d.New, d.Percent, status)
	}
	if len(offenders) > 0 {
		return fmt.Errorf("%d record(s) regressed beyond %.1f%% vs %s (worst: %s %+.1f%%)",
			len(offenders), maxRegress, path, offenders[0].Name, offenders[0].Percent)
	}
	if len(lost) > 0 {
		return fmt.Errorf("%d record(s) lost more than %.1f%% CR or %.2f dB PSNR vs %s: %v",
			len(lost), gateCRDropPct, gatePSNRDropDB, path, lost)
	}
	fmt.Fprintf(out, "gate: %d comparison(s) within %.1f%% of %s\n", len(deltas), maxRegress, path)
	return nil
}

// recordKey identifies a record across reports.
type recordKey struct {
	name    string
	workers int
}

// droppedRecords returns "<name> w<workers>" for every baseline record
// the current report lacks, in baseline order.
func droppedRecords(base, cur *perfReport) []string {
	have := make(map[recordKey]bool, len(cur.Records))
	for _, r := range cur.Records {
		have[recordKey{r.Name, r.Workers}] = true
	}
	var dropped []string
	for _, r := range base.Records {
		if !have[recordKey{r.Name, r.Workers}] {
			dropped = append(dropped, fmt.Sprintf("%s w%d", r.Name, r.Workers))
		}
	}
	return dropped
}

// qualityLosses prints a "quality:" line for every record whose CR,
// PSNR, output bytes, k or standardize bit differs from the baseline's,
// and returns "<name> w<workers>" for each one whose CR or PSNR fell
// beyond the quality bounds. Records without quality on either side
// (baselines written before records carried it) are skipped, and so are
// the byte counts of a baseline written before quality carried them.
func qualityLosses(base, cur *perfReport, out io.Writer) []string {
	old := make(map[recordKey]*quality, len(base.Records))
	for _, r := range base.Records {
		old[recordKey{r.Name, r.Workers}] = r.Quality
	}
	var lost []string
	for _, r := range cur.Records {
		b, q := old[recordKey{r.Name, r.Workers}], r.Quality
		if b == nil || q == nil {
			continue
		}
		same := *b
		if same.BytesOut == 0 { // a baseline without byte counts
			same.BytesIn, same.BytesOut = q.BytesIn, q.BytesOut
		}
		if same == *q {
			continue
		}
		id := fmt.Sprintf("%s w%d", r.Name, r.Workers)
		status := "ok"
		if q.CR < b.CR*(1-gateCRDropPct/100) || q.PSNR < b.PSNR-gatePSNRDropDB {
			status = "QUALITY LOSS"
			lost = append(lost, id)
		}
		fmt.Fprintf(out, "quality: %s cr %.4f -> %.4f, psnr %.3f -> %.3f dB, bytes_out %d -> %d, k %d -> %d, standardized %v -> %v  %s\n",
			id, b.CR, q.CR, b.PSNR, q.PSNR, b.BytesOut, q.BytesOut, b.K, q.K, b.Standardized, q.Standardized, status)
	}
	return lost
}

// gateDeltas pairs up records by (name, workers) and emits one delta per
// comparable metric, sorted by descending regression so the worst
// offender leads error messages.
func gateDeltas(base, cur *perfReport) []gateDelta {
	old := make(map[recordKey]perfRecord, len(base.Records))
	for _, r := range base.Records {
		old[recordKey{r.Name, r.Workers}] = r
	}
	var deltas []gateDelta
	push := func(name string, o, n int64) {
		if o <= 0 || n < 0 {
			return
		}
		deltas = append(deltas, gateDelta{
			Name:    name,
			Old:     o,
			New:     n,
			Percent: 100 * float64(n-o) / float64(o),
		})
	}
	for _, r := range cur.Records {
		b, ok := old[recordKey{r.Name, r.Workers}]
		if !ok {
			continue
		}
		id := fmt.Sprintf("%s w%d", r.Name, r.Workers)
		push(id+" ns/op", b.NsPerOp, r.NsPerOp)
		if len(r.StageNs) == 0 {
			continue
		}
		// The stages are walked in sorted order, so deltas of equal
		// percent keep one order from run to run.
		stages := make([]string, 0, len(b.StageNs))
		for stage := range b.StageNs {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		for _, stage := range stages {
			// A stage under the floor is clock noise and not gated. A
			// stage the baseline lacks (recorded before it was split
			// out) is new rather than a regression and never visited.
			if old := b.StageNs[stage]; old >= gateStageFloorNs {
				push(id+" stage "+stage, old.Nanoseconds(), r.StageNs[stage].Nanoseconds())
			}
		}
	}
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].Percent > deltas[j].Percent })
	return deltas
}
