package metrics

import (
	"testing"
	"time"
)

func TestClockInjection(t *testing.T) {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	step := t0
	restore := SetClock(func() time.Time {
		step = step.Add(time.Second)
		return step
	})

	if got := Now(); !got.Equal(t0.Add(time.Second)) {
		t.Errorf("Now() = %v, want %v", got, t0.Add(time.Second))
	}
	if got := Since(t0); got != 2*time.Second {
		t.Errorf("Since(t0) = %v, want 2s", got)
	}

	restore()
	wall := Now()
	if wall.Year() < 2024 || !wall.After(t0.Add(-10*365*24*time.Hour)) {
		t.Errorf("restored clock looks fake: %v", wall)
	}
	if d := Since(Now()); d < -time.Second || d > time.Minute {
		t.Errorf("restored Since is implausible: %v", d)
	}
}

func TestClockRestoreNesting(t *testing.T) {
	fixed := time.Unix(1_000_000, 0)
	outer := SetClock(func() time.Time { return fixed })
	inner := SetClock(func() time.Time { return fixed.Add(time.Hour) })
	if got := Now(); !got.Equal(fixed.Add(time.Hour)) {
		t.Errorf("inner clock: got %v", got)
	}
	inner()
	if got := Now(); !got.Equal(fixed) {
		t.Errorf("after inner restore: got %v, want %v", got, fixed)
	}
	outer()
}

func TestTraceByName(t *testing.T) {
	now := time.Unix(100, 0)
	defer SetClock(func() time.Time { return now })()
	var nilTrace *Trace
	nilTrace.Add("dct", "", now) // records nothing, and does not panic

	var tr Trace
	tr.Add("gram", "pca", now.Add(-2*time.Second))
	tr.Add("gram", "pca", now.Add(-3*time.Second))
	tr.Add("pca", "", now.Add(-7*time.Second))
	if len(tr) != 3 || tr[0] != (Span{Name: "gram", Parent: "pca", D: 2 * time.Second}) {
		t.Fatalf("spans %+v", tr)
	}
	got := tr.ByName()
	if len(got) != 2 || got["gram"] != 5*time.Second || got["pca"] != 7*time.Second {
		t.Fatalf("ByName = %v, want gram 5s and pca 7s", got)
	}
}
