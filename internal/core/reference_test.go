package core

import (
	"fmt"

	"dpz/internal/blockio"
	"dpz/internal/mat"
	"dpz/internal/parallel"
	"dpz/internal/transform"
)

// reconstruct is the full-plane decode that production code ran before
// every decode moved to rank space, kept verbatim (minus its stage timer)
// as a test oracle: it composes all M block rows in the transform domain
// and inverse-transforms the whole plane. It inverts Stages 2 and 1 given
// scores (N×k), the projection matrix (M×k), feature means/scales, the
// block shape and the original length; mode selects the inverse Stage 1
// transform.
//
// The recompose X̂ᵀ = D·Yᵀ runs through the tiled GemmNTInto directly into
// feature-major block rows — no N×M value-major intermediate, no
// transpose copy. GemmNTInto's per-element dot product reproduces the
// historical Mul(y, proj.T()) summation exactly (see its contract), and
// the de-standardization applies the same multiply-then-add per element
// the transpose-copy loop did.
func reconstruct(y, proj *mat.Dense, means, scales []float64, shape blockio.Shape, origLen, workers int, mode xformMode) ([]float64, error) {
	n, k := y.Dims()
	pm, pk := proj.Dims()
	if n != shape.N || pm != shape.M || k != pk {
		return nil, fmt.Errorf("core: reconstruct shape mismatch (%dx%d scores, %dx%d proj, %dx%d blocks)",
			n, k, pm, pk, shape.M, shape.N)
	}
	// blocks[j][i] = Σ_k proj[j][k]·y[i][k] (·scale_j) + μ_j.
	blocks := mat.NewDense(shape.M, shape.N)
	mat.GemmNTInto(blocks, proj, y, workers)
	parallel.ForChunks(shape.M, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := blocks.Row(j)
			mj := means[j]
			if scales != nil {
				sj := scales[j]
				for i := range row {
					v := row[i] * sj
					row[i] = v + mj
				}
			} else {
				for i := range row {
					row[i] += mj
				}
			}
		}
	})
	switch mode {
	case xform1D:
		transform.InverseRows(blocks.Data(), shape.M, shape.N, workers)
	case xform2D:
		transform.IDCT2D(blocks.Data(), shape.M, shape.N, workers)
	case xformHaar:
		transform.HaarInverseRows(blocks.Data(), shape.M, shape.N, workers)
	}
	return blockio.Recompose(blocks, origLen)
}
