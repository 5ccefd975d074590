// Package compare wraps every compressor in the repository behind one
// Codec interface and provides rate-distortion sweep helpers. The
// experiment harness (Figure 6/8) and the baseline-comparison example are
// built on it.
package compare

import (
	"context"
	"fmt"
	"time"

	"dpz/internal/core"
	"dpz/internal/dctz"
	"dpz/internal/mgard"
	"dpz/internal/stats"
	"dpz/internal/sz"
	"dpz/internal/tthresh"
	"dpz/internal/zfp"
)

// Codec is one compressor at one setting.
type Codec interface {
	// Name identifies the compressor family ("DPZ-l", "SZ", ...).
	Name() string
	// Setting describes the operating point ("tve=5-nine", "eb=1e-3").
	Setting() string
	// Compress encodes data with row-major dims.
	Compress(data []float64, dims []int) ([]byte, error)
	// Decompress decodes a stream produced by Compress.
	Decompress(buf []byte) ([]float64, []int, error)
	// Supports reports whether the codec handles this dimensionality.
	Supports(dims []int) bool
}

// Point is one measured rate-distortion sample.
type Point struct {
	Codec          string
	Setting        string
	CR             float64
	BitRate        float64
	PSNR           float64
	MaxAbsError    float64
	CompressTime   time.Duration
	DecompressTime time.Duration
}

// Measure runs one codec end to end on the data.
func Measure(c Codec, data []float64, dims []int) (Point, error) {
	p := Point{Codec: c.Name(), Setting: c.Setting()}
	t0 := time.Now()
	buf, err := c.Compress(data, dims)
	if err != nil {
		return p, fmt.Errorf("%s %s: %w", c.Name(), c.Setting(), err)
	}
	p.CompressTime = time.Since(t0)
	t0 = time.Now()
	out, _, err := c.Decompress(buf)
	if err != nil {
		return p, fmt.Errorf("%s %s: %w", c.Name(), c.Setting(), err)
	}
	p.DecompressTime = time.Since(t0)
	p.CR = stats.CompressionRatio(4*len(data), len(buf))
	p.BitRate = stats.BitRate(p.CR, 32)
	p.PSNR = stats.PSNR(data, out)
	p.MaxAbsError = stats.MaxAbsError(data, out)
	return p, nil
}

// Sweep measures every supporting codec on the data, skipping codecs that
// do not handle its dimensionality.
func Sweep(codecs []Codec, data []float64, dims []int) ([]Point, error) {
	var pts []Point
	for _, c := range codecs {
		if !c.Supports(dims) {
			continue
		}
		pt, err := Measure(c, data, dims)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// --- DPZ -----------------------------------------------------------------

// DPZCodec runs the core pipeline at a fixed parameter set.
type DPZCodec struct {
	Label   string
	Params  core.Params
	Workers int
}

func (d DPZCodec) Name() string    { return d.Label }
func (d DPZCodec) Setting() string { return settingOf(d.Params) }

func settingOf(p core.Params) string {
	if p.Selection == core.KneePoint {
		return fmt.Sprintf("knee(%s)", p.Fit)
	}
	return fmt.Sprintf("tve=%.8f", p.TVE)
}

func (d DPZCodec) Supports([]int) bool { return true }

func (d DPZCodec) Compress(data []float64, dims []int) ([]byte, error) {
	p := d.Params
	p.Workers = d.Workers
	c, err := core.Compress(data, dims, p)
	if err != nil {
		return nil, err
	}
	return c.Bytes, nil
}

func (d DPZCodec) Decompress(buf []byte) ([]float64, []int, error) {
	return core.Decompress(context.Background(), buf, d.Workers, 0, nil)
}

// NewDPZ builds a DPZ codec: scheme "l" or "s", TVE target in nines.
func NewDPZ(scheme string, nines int) DPZCodec {
	var p core.Params
	label := "DPZ-" + scheme
	if scheme == "s" {
		p = core.DPZS()
	} else {
		p = core.DPZL()
	}
	p.TVE = core.NinesTVE(nines)
	return DPZCodec{Label: label, Params: p}
}

// --- SZ ------------------------------------------------------------------

// SZCodec is the Lorenzo-prediction baseline at a relative error bound.
type SZCodec struct{ EB float64 }

func (s SZCodec) Name() string    { return "SZ" }
func (s SZCodec) Setting() string { return fmt.Sprintf("eb=%.0e", s.EB) }
func (s SZCodec) Supports(dims []int) bool {
	return len(dims) >= 1 && len(dims) <= 3
}

func (s SZCodec) Compress(data []float64, dims []int) ([]byte, error) {
	c, err := sz.Compress(data, dims, sz.Params{ErrorBound: s.EB, Relative: true})
	if err != nil {
		return nil, err
	}
	return c.Bytes, nil
}

func (s SZCodec) Decompress(buf []byte) ([]float64, []int, error) {
	return sz.Decompress(buf)
}

// --- ZFP -----------------------------------------------------------------

// ZFPCodec is the transform baseline at a fixed precision.
type ZFPCodec struct{ Precision int }

func (z ZFPCodec) Name() string    { return "ZFP" }
func (z ZFPCodec) Setting() string { return fmt.Sprintf("prec=%d", z.Precision) }
func (z ZFPCodec) Supports(dims []int) bool {
	return len(dims) >= 1 && len(dims) <= 3
}

func (z ZFPCodec) Compress(data []float64, dims []int) ([]byte, error) {
	c, err := zfp.Compress(data, dims, zfp.Params{Mode: zfp.FixedPrecision, Precision: z.Precision})
	if err != nil {
		return nil, err
	}
	return c.Bytes, nil
}

func (z ZFPCodec) Decompress(buf []byte) ([]float64, []int, error) {
	return zfp.Decompress(buf)
}

// --- DCTZ ----------------------------------------------------------------

// DCTZCodec is the block-DCT predecessor at a relative error bound.
type DCTZCodec struct{ EB float64 }

func (d DCTZCodec) Name() string             { return "DCTZ" }
func (d DCTZCodec) Setting() string          { return fmt.Sprintf("eb=%.0e", d.EB) }
func (d DCTZCodec) Supports(dims []int) bool { return len(dims) >= 1 && len(dims) <= 4 }

func (d DCTZCodec) Compress(data []float64, dims []int) ([]byte, error) {
	c, err := dctz.Compress(data, dims, dctz.Params{ErrorBound: d.EB, Relative: true})
	if err != nil {
		return nil, err
	}
	return c.Bytes, nil
}

func (d DCTZCodec) Decompress(buf []byte) ([]float64, []int, error) {
	return dctz.Decompress(buf)
}

// --- MGARD ---------------------------------------------------------------

// MGARDCodec is the multigrid baseline at a relative error bound.
type MGARDCodec struct{ EB float64 }

func (m MGARDCodec) Name() string    { return "MGARD" }
func (m MGARDCodec) Setting() string { return fmt.Sprintf("eb=%.0e", m.EB) }
func (m MGARDCodec) Supports(dims []int) bool {
	return len(dims) >= 1 && len(dims) <= 3
}

func (m MGARDCodec) Compress(data []float64, dims []int) ([]byte, error) {
	c, err := mgard.Compress(data, dims, mgard.Params{ErrorBound: m.EB, Relative: true})
	if err != nil {
		return nil, err
	}
	return c.Bytes, nil
}

func (m MGARDCodec) Decompress(buf []byte) ([]float64, []int, error) {
	return mgard.Decompress(buf)
}

// --- TTHRESH -------------------------------------------------------------

// TTHRESHCodec is the tensor baseline at a relative RMSE target.
type TTHRESHCodec struct{ RMSE float64 }

func (t TTHRESHCodec) Name() string    { return "TTHRESH" }
func (t TTHRESHCodec) Setting() string { return fmt.Sprintf("rmse=%.0e", t.RMSE) }
func (t TTHRESHCodec) Supports(dims []int) bool {
	if len(dims) < 2 || len(dims) > 3 {
		return false
	}
	for _, d := range dims {
		if d > 1024 {
			return false
		}
	}
	return true
}

func (t TTHRESHCodec) Compress(data []float64, dims []int) ([]byte, error) {
	c, err := tthresh.Compress(data, dims, tthresh.Params{RMSE: t.RMSE, Relative: true})
	if err != nil {
		return nil, err
	}
	return c.Bytes, nil
}

func (t TTHRESHCodec) Decompress(buf []byte) ([]float64, []int, error) {
	return tthresh.Decompress(buf)
}

// DefaultPanel returns one representative operating point per compressor
// family (a quick cross-family comparison).
func DefaultPanel() []Codec {
	return []Codec{
		NewDPZ("l", 5),
		NewDPZ("s", 5),
		SZCodec{EB: 1e-3},
		ZFPCodec{Precision: 16},
		DCTZCodec{EB: 1e-3},
		MGARDCodec{EB: 1e-3},
		TTHRESHCodec{RMSE: 1e-3},
	}
}
