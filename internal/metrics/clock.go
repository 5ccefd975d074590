package metrics

import (
	"sync/atomic"
	"time"
)

// This file is the repo's one sanctioned wall-clock site for the
// deterministic kernel packages: dpzlint's walltime analyzer forbids
// raw time.Now/time.Since under internal/ (outside the serving and
// measurement layers) and whitelists this package instead. Stage
// timings in internal/core and internal/pca route through Now and
// Trace.Add so tests can inject a fixed clock and determinism audits
// have a single site to clear.

// clock is the process-wide time source; swapped atomically so tests
// can inject a fake clock under -race.
var clock atomic.Pointer[func() time.Time]

func init() {
	realClock := time.Now
	clock.Store(&realClock)
}

// SetClock replaces the process-wide time source and returns a restore
// function, for tests that need deterministic timings:
//
//	defer metrics.SetClock(func() time.Time { return t0 })()
func SetClock(now func() time.Time) (restore func()) {
	prev := clock.Swap(&now)
	return func() { clock.Store(prev) }
}

// Now returns the current time from the injectable clock.
func Now() time.Time {
	return (*clock.Load())()
}

// Since returns the elapsed time since t per the injectable clock.
func Since(t time.Time) time.Duration {
	return Now().Sub(t)
}

// Span is one timed stage of a call: its name, the name of the span it
// is part of ("" for a top-level span) and its wall time.
type Span struct {
	Name   string
	Parent string
	D      time.Duration
}

// Trace is the stage breakdown of one call: its spans in the order they
// ended. A stage that runs in pieces adds one span per piece under the
// same name and parent; ByName sums them. A nil *Trace records nothing.
type Trace []Span

// Add appends the span name, part of parent, that began at start and
// ends now.
func (t *Trace) Add(name, parent string, start time.Time) {
	if t != nil {
		*t = append(*t, Span{Name: name, Parent: parent, D: Since(start)})
	}
}

// ByName sums the span durations by name.
func (t Trace) ByName() map[string]time.Duration {
	m := make(map[string]time.Duration, len(t))
	for _, s := range t {
		m[s.Name] += s.D
	}
	return m
}
