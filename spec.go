package dpz

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseDims parses a dimension string like "1800x3600" (slowest dimension
// first, 1-4 components) into a dims slice. The dpz CLI and the dpzd
// server share this parser so a dims string means the same field shape
// everywhere.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) < 1 || len(parts) > 4 {
		return nil, fmt.Errorf("dims %q must have 1-4 components", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dimension %q in %q", p, s)
		}
		dims[i] = v
	}
	return dims, nil
}

// OptionSpec is a flat, string-valued description of Options. It is the
// single translation point between user-facing knobs and Options: the dpz
// CLI flags and the dpzd request parameters both build their Options
// through it, which is what guarantees a server compression is
// byte-identical to the CLI's for the same knob settings.
//
// The zero value means "defaults": strict scheme, TVE selection at
// "five-nine", 1-D knee fit, no sampling, automatic workers, default zlib
// level.
type OptionSpec struct {
	// Scheme is the quantization scheme: "loose" (P=1e-3, 1-byte indices)
	// or "strict" (P=1e-4, 2-byte). Empty means strict.
	Scheme string
	// Select is the k-selection method: "tve" or "knee". Empty means tve.
	Select string
	// TVENines is the TVE threshold as a count of nines (3..8 in the
	// paper; 1..12 accepted). 0 means 5 ("five-nine").
	TVENines int
	// Fit is the knee curve fit: "1d" or "polyn". Empty means 1d.
	Fit string
	// Sampling enables the Algorithm 2 sampling strategy.
	Sampling bool
	// Workers bounds goroutine parallelism (0 = GOMAXPROCS).
	Workers int
	// ZLevel sets the zlib add-on level 1-9 (0 = zlib default).
	ZLevel int
	// BasisReuse enables the cross-tile PCA basis cache: similar tiles
	// reuse an earlier tile's basis after a quality guard verifies the
	// TVE target still holds, and fit cold otherwise.
	BasisReuse bool
	// Index controls the trailing retrieval-index section: "on" (format
	// v3 with per-tile summaries, the default) or "off" (format v2,
	// which v2-era releases also decode). Empty means on.
	Index string
}

// Options resolves the spec into an Options value, or reports the first
// invalid knob.
func (s OptionSpec) Options() (Options, error) {
	var o Options
	scheme := s.Scheme
	if scheme == "" {
		scheme = "strict"
	}
	switch strings.ToLower(scheme) {
	case "loose":
		o = LooseOptions()
	case "strict":
		o = StrictOptions()
	default:
		return o, fmt.Errorf("unknown scheme %q (loose|strict)", s.Scheme)
	}
	sel := s.Select
	if sel == "" {
		sel = "tve"
	}
	switch strings.ToLower(sel) {
	case "tve":
		o.Selection = TVEThreshold
	case "knee":
		o.Selection = KneePoint
	default:
		return o, fmt.Errorf("unknown selection %q (tve|knee)", s.Select)
	}
	nines := s.TVENines
	if nines == 0 {
		nines = 5
	}
	if nines < 1 || nines > 12 {
		return o, fmt.Errorf("tve nines %d out of range", s.TVENines)
	}
	o.TVE = Nines(nines)
	fit := s.Fit
	if fit == "" {
		fit = "1d"
	}
	switch strings.ToLower(fit) {
	case "1d":
		o.Fit = FitLinear
	case "polyn":
		o.Fit = FitPoly
	default:
		return o, fmt.Errorf("unknown fit %q (1d|polyn)", s.Fit)
	}
	o.UseSampling = s.Sampling
	if s.Workers < 0 {
		return o, fmt.Errorf("workers %d negative", s.Workers)
	}
	o.Workers = s.Workers
	if s.ZLevel < 0 || s.ZLevel > 9 {
		return o, fmt.Errorf("zlevel %d out of [0,9]", s.ZLevel)
	}
	o.ZLevel = s.ZLevel
	o.BasisReuse = s.BasisReuse
	index := s.Index
	if index == "" {
		index = "on"
	}
	switch strings.ToLower(index) {
	case "on":
		o.NoIndex = false
	case "off":
		o.NoIndex = true
	default:
		return o, fmt.Errorf("unknown index mode %q (on|off)", s.Index)
	}
	return o, nil
}
