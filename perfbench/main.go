// Command perfbench is the DPZ benchmark. One invocation runs one named
// workload for a fixed time from a seed, checks every output it gets, and
// prints its metrics as a single JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload snapshots-flat --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics. With --trace 1
// the same workload runs again with spans recorded around every public call
// it makes, then replays the exported functions of each pipeline layer in
// order on the run's own inputs and prints the per-layer metrics instead.
// Layers are timed from outside: no library, server or client code is
// instrumented. WORKLOADS.md records each workload's inputs and options.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds what a run leaves behind (span files, the last untraced
// result per workload). It lies under .bench_build, which .gitignore names.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload invocation fills in.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	workers  int
	tr       *tracer // nil unless --trace 1

	attempted, failed int
	failures          []string // first few failure messages, for stderr

	e2e   map[string]metric
	layer map[string]metric
}

// op counts one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

func main() {
	workload := flag.String("workload", "", "snapshots-flat, snapshots-lowrank or serve-retrieval")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 24, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("need --seconds >= 1 and --trace 0 or 1"))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		workers:  runtime.NumCPU(),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		r.workload, r.seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var err error
	switch r.workload {
	case flatSeries.workload:
		err = runSnapshots(r, flatSeries)
	case lowRankSeries.workload:
		err = runSnapshots(r, lowRankSeries)
	case "serve-retrieval":
		err = runServe(r)
	default:
		err = fmt.Errorf("unknown --workload %q", r.workload)
	}
	if err != nil {
		fatal(err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fatal(err)
	}
	r.setE2E("peak_rss_mb", rss, "MB")
	if err := r.finish(); err != nil {
		fatal(err)
	}
}

// finish prints the human-readable summary, handles the trace artefacts
// and prints the result object as the last line.
func (r *run) finish() error {
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	failFrac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("ops attempted=%d failed=%d fail_frac=%.6f\n", r.attempted, r.failed, failFrac)
	printMetrics("end-to-end", r.e2e)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	untracedPath := filepath.Join(outDir, "untraced-"+r.workload+".json")
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if r.tr == nil {
		// Kept so a later traced run can report its overhead against it.
		b, err := json.Marshal(untracedRecord{Seed: r.seed, Metrics: r.e2e})
		if err != nil {
			return err
		}
		if err := os.WriteFile(untracedPath, b, 0o644); err != nil {
			return err
		}
	} else {
		r.setLayer("fail_frac", failFrac, "ratio")
		printOverhead(untracedPath, r.seed, r.e2e)
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.write(spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", r.tr.len(), spans)
		printMetrics("per-layer", r.layer)
		out.Metrics = r.layer
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// untracedRecord is the last untraced result of a workload.
type untracedRecord struct {
	Seed    int64             `json:"seed"`
	Metrics map[string]metric `json:"metrics"`
}

// printOverhead prints the traced run's end-to-end metrics minus those of
// the last untraced run of the same workload. Only a record of the same
// seed compares like with like; another seed's is printed with a warning.
func printOverhead(path string, seed int64, traced map[string]metric) {
	b, err := os.ReadFile(path)
	var base untracedRecord
	if err == nil {
		err = json.Unmarshal(b, &base)
	}
	if err != nil {
		fmt.Printf("tracing overhead: no untraced run recorded for this workload (%v)\n", err)
		return
	}
	note := ""
	if base.Seed != seed {
		note = fmt.Sprintf("; its seed %d differs, so inputs differ too", base.Seed)
	}
	fmt.Printf("tracing overhead (traced minus the last untraced run of this workload%s):\n", note)
	for _, name := range sortedKeys(traced) {
		t, u := traced[name], base.Metrics[name]
		if u.Unit == "" {
			continue
		}
		rel := 0.0
		if u.Value != 0 {
			rel = 100 * (t.Value - u.Value) / u.Value
		}
		fmt.Printf("  %-16s %+12.4f %-6s (%+.1f%%)\n", name, t.Value-u.Value, t.Unit, rel)
	}
}

func printMetrics(title string, m map[string]metric) {
	fmt.Printf("%s metrics:\n", title)
	for _, name := range sortedKeys(m) {
		fmt.Printf("  %-28s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// repeatSetup builds a workload's set-up repeats times and keeps the
// last; every earlier one is handed to discard. It returns the median
// build time in seconds, so one slow build does not read as a regression.
func repeatSetup[T any](repeats int, build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		v     T
		times []float64
	)
	for i := 0; i < repeats; i++ {
		if i > 0 {
			discard(v)
		}
		t0 := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Printf("set-up times: %s s\n", fmtFloats(times))
	return v, median(times), nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
