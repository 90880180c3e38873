// Package ml implements the machine-learning stack of the paper's
// evaluation workflow: principal component analysis (PCA) and incremental
// PCA (IPCA) following the scikit-learn algorithms that dask-ml wraps,
// plus builders that express IPCA as a task graph — the paper's "old
// IPCA" (one graph per partial_fit, §3.1) and "new IPCA" (the whole
// multi-timestep chain in a single graph, §3.2).
package ml

import (
	"fmt"
	"math"

	"deisago/internal/linalg"
	"deisago/internal/ndarray"
)

// PCA is a full-batch principal component analysis (SVD-based), the
// dask_ml.decomposition.PCA equivalent.
type PCA struct {
	NComponents int

	// Fitted attributes (scikit-learn naming, Go-cased).
	Components             *ndarray.Array // (k × features) rows are components
	SingularValues         []float64
	Mean                   []float64
	ExplainedVariance      []float64
	ExplainedVarianceRatio []float64
	NSamplesSeen           int
}

// NewPCA returns a PCA estimator extracting k components.
func NewPCA(k int) *PCA {
	if k <= 0 {
		panic("ml: NComponents must be positive")
	}
	return &PCA{NComponents: k}
}

// Fit computes the decomposition of X (samples × features).
func (p *PCA) Fit(x *ndarray.Array) error {
	if x.NDim() != 2 {
		return fmt.Errorf("ml: PCA.Fit wants a 2-d samples×features array, got shape %v", x.Shape())
	}
	n, f := x.Dim(0), x.Dim(1)
	if n < 2 {
		return fmt.Errorf("ml: PCA needs at least 2 samples, got %d", n)
	}
	if p.NComponents > min(n, f) {
		return fmt.Errorf("ml: NComponents=%d exceeds min(samples=%d, features=%d)", p.NComponents, n, f)
	}
	mean := x.MeanAxis(0)
	centered := centerRows(x, mean.Data())
	s, v := linalg.SVDRight(centered)
	vt := v.Transpose().Copy() // rows are right singular vectors
	svdFlip(vt)

	k := p.NComponents
	p.Mean = mean.Data()
	p.Components = vt.Slice(ndarray.Range{Start: 0, Stop: k}, ndarray.Range{Start: 0, Stop: f}).Copy()
	p.SingularValues = append([]float64(nil), s[:k]...)
	p.NSamplesSeen = n

	totalVar := 0.0
	p.ExplainedVariance = make([]float64, k)
	for i, sv := range s {
		ev := sv * sv / float64(n-1)
		if i < k {
			p.ExplainedVariance[i] = ev
		}
		totalVar += ev
	}
	p.ExplainedVarianceRatio = make([]float64, k)
	if totalVar > 0 {
		for i := range p.ExplainedVarianceRatio {
			p.ExplainedVarianceRatio[i] = p.ExplainedVariance[i] / totalVar
		}
	}
	return nil
}

// Transform projects X onto the fitted components, returning
// (samples × k).
func (p *PCA) Transform(x *ndarray.Array) (*ndarray.Array, error) {
	return transform(x, p.Mean, p.Components)
}

func transform(x *ndarray.Array, mean []float64, components *ndarray.Array) (*ndarray.Array, error) {
	if components == nil {
		return nil, fmt.Errorf("ml: estimator is not fitted")
	}
	if x.NDim() != 2 || x.Dim(1) != len(mean) {
		return nil, fmt.Errorf("ml: Transform input shape %v does not match %d features", x.Shape(), len(mean))
	}
	centered := centerRows(x, mean)
	return ndarray.MatMul(centered, components.Transpose()), nil
}

// centerRows returns x - mean (mean broadcast over rows) as a fresh
// contiguous array, using flat row slices instead of per-element At/Set.
func centerRows(x *ndarray.Array, mean []float64) *ndarray.Array {
	n, f := x.Dim(0), x.Dim(1)
	out := x.Copy()
	od := out.Data()
	ndarray.ParallelFor(n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := od[i*f : (i+1)*f]
			for j, mu := range mean {
				row[j] -= mu
			}
		}
	})
	return out
}

// svdFlip fixes the sign ambiguity of the SVD so results are
// deterministic: each row of vt gets a positive entry of maximum absolute
// value (scikit-learn's u_based_decision=False convention). Every caller
// discards U, so only vt is flipped.
func svdFlip(vt *ndarray.Array) {
	f := vt.Dim(1)
	vd := vt.Data()
	for r := 0; r < vt.Dim(0); r++ {
		row := vd[r*f : (r+1)*f]
		maxAbs, sign := 0.0, 1.0
		for _, v := range row {
			if math.Abs(v) > maxAbs {
				maxAbs = math.Abs(v)
				if v < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		if sign < 0 {
			for j, v := range row {
				row[j] = -v
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
