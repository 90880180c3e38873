package ml

import (
	"fmt"

	"deisago/internal/linalg"
	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// This file implements the distributed full-batch PCA that dask-ml's
// PCA provides (§3.1): a tall-skinny QR (TSQR) reduction over row blocks
// followed by an SVD of the small combined R factor. Unlike IPCA it
// needs all the data at once, which is why the paper's in situ pipeline
// uses IPCA — but it is the natural baseline and exercises the same
// graph machinery.
//
// The algorithm (Benson et al. TSQR, as used by da.linalg.tsqr):
//
//	per block i:  mean_i, count_i            (statistics pass)
//	global mean = Σ count_i·mean_i / Σ count_i
//	per block i:  Q_i, R_i = qr(X_i - mean)   (local factorization)
//	stack:        R = vstack(R_1..R_k); U, S, Vᵀ = svd(R)
//	components  = first k rows of Vᵀ
//
// Singular values and right singular vectors of the stacked R equal
// those of the full centered matrix, so the result is exact.

// DistributedPCAResult names the keys added by BuildDistributedPCA.
type DistributedPCAResult struct {
	Components        taskgraph.Key
	SingularValues    taskgraph.Key
	ExplainedVariance taskgraph.Key
}

// BuildDistributedPCA adds a TSQR-based PCA over the given row-block
// keys (each a samples×features *ndarray.Array with identical feature
// counts) to g. blockRows/features size the cost model, as in
// BuildIPCAChain.
func BuildDistributedPCA(g *taskgraph.Graph, name string, blockKeys []taskgraph.Key,
	nComponents, blockRows, features int) DistributedPCAResult {
	if len(blockKeys) == 0 {
		panic("ml: BuildDistributedPCA needs at least one block")
	}
	if nComponents <= 0 {
		panic("ml: NComponents must be positive")
	}
	passCost := vtime.Dur(float64(blockRows*features) * 8e-9)

	// Per-block statistics: (sum vector, count).
	type blockStats struct {
		sum   []float64
		count int
	}
	statKeys := make([]taskgraph.Key, len(blockKeys))
	for i, bk := range blockKeys {
		statKeys[i] = taskgraph.Key(fmt.Sprintf("%s-stats-%d", name, i))
		g.AddFn(statKeys[i], []taskgraph.Key{bk}, func(in []any) (any, error) {
			m, ok := in[0].(*ndarray.Array)
			if !ok {
				return nil, fmt.Errorf("ml: pca block is %T, want *ndarray.Array", in[0])
			}
			return blockStats{sum: m.SumAxis(0).Data(), count: m.Dim(0)}, nil
		}, passCost)
	}
	// Global mean.
	meanKey := taskgraph.Key(name + "-mean")
	g.AddFn(meanKey, statKeys, func(in []any) (any, error) {
		var total int
		var sum []float64
		for _, v := range in {
			st := v.(blockStats)
			if sum == nil {
				sum = append([]float64(nil), st.sum...)
			} else {
				if len(st.sum) != len(sum) {
					return nil, fmt.Errorf("ml: pca blocks disagree on features")
				}
				for j := range sum {
					sum[j] += st.sum[j]
				}
			}
			total += st.count
		}
		if total < 2 {
			return nil, fmt.Errorf("ml: pca needs at least 2 samples, got %d", total)
		}
		for j := range sum {
			sum[j] /= float64(total)
		}
		return blockStats{sum: sum, count: total}, nil
	}, 1e-5)

	// Per-block centered QR: emit R_i (features × features).
	qrCost := vtime.Dur(2 * float64(blockRows) * float64(features) * float64(features) * 2.5e-10)
	rKeys := make([]taskgraph.Key, len(blockKeys))
	for i, bk := range blockKeys {
		rKeys[i] = taskgraph.Key(fmt.Sprintf("%s-r-%d", name, i))
		t := g.AddFn(rKeys[i], []taskgraph.Key{bk, meanKey}, func(in []any) (any, error) {
			m := in[0].(*ndarray.Array)
			mean := in[1].(blockStats).sum
			rows, cols := m.Dim(0), m.Dim(1)
			centered := centerRows(m, mean)
			if rows < cols {
				// Pad with zero rows so QR (m>=n) applies; zero rows do
				// not change R.
				padded := ndarray.New(cols, cols)
				padded.Slice(ndarray.Range{Start: 0, Stop: rows},
					ndarray.Range{Start: 0, Stop: cols}).CopyFrom(centered)
				centered = padded
			}
			_, r := linalg.QR(centered)
			return r, nil
		}, qrCost)
		t.OutBytes = int64(features*features) * 8
	}

	// Combine: SVD of the stacked R factors.
	finalKey := taskgraph.Key(name + "-final")
	combineCost := vtime.Dur(2 * float64(len(blockKeys)*features) * float64(features) * float64(features) * 2.5e-10)
	g.AddFn(finalKey, append([]taskgraph.Key{meanKey}, rKeys...), func(in []any) (any, error) {
		stats := in[0].(blockStats)
		rs := make([]*ndarray.Array, 0, len(in)-1)
		for _, v := range in[1:] {
			rs = append(rs, v.(*ndarray.Array))
		}
		stacked := ndarray.Concat(0, rs...)
		s, v := linalg.SVDRight(stacked)
		vt := v.Transpose().Copy()
		svdFlip(vt)
		f := vt.Dim(1)
		k := nComponents
		if k > f {
			return nil, fmt.Errorf("ml: NComponents=%d exceeds features=%d", k, f)
		}
		p := &PCA{NComponents: k}
		p.Mean = stats.sum
		p.NSamplesSeen = stats.count
		p.Components = vt.Slice(ndarray.Range{Start: 0, Stop: k}, ndarray.Range{Start: 0, Stop: f}).Copy()
		p.SingularValues = append([]float64(nil), s[:k]...)
		denom := float64(stats.count - 1)
		total := 0.0
		p.ExplainedVariance = make([]float64, k)
		for i, sv := range s {
			ev := sv * sv / denom
			if i < k {
				p.ExplainedVariance[i] = ev
			}
			total += ev
		}
		p.ExplainedVarianceRatio = make([]float64, k)
		if total > 0 {
			for i := range p.ExplainedVarianceRatio {
				p.ExplainedVarianceRatio[i] = p.ExplainedVariance[i] / total
			}
		}
		return p, nil
	}, combineCost)

	res := DistributedPCAResult{
		Components:        taskgraph.Key(name + "-components"),
		SingularValues:    taskgraph.Key(name + "-singular-values"),
		ExplainedVariance: taskgraph.Key(name + "-explained-variance"),
	}
	g.AddFn(res.Components, []taskgraph.Key{finalKey}, func(in []any) (any, error) {
		return in[0].(*PCA).Components, nil
	}, 1e-6)
	g.AddFn(res.SingularValues, []taskgraph.Key{finalKey}, func(in []any) (any, error) {
		return append([]float64(nil), in[0].(*PCA).SingularValues...), nil
	}, 1e-6)
	g.AddFn(res.ExplainedVariance, []taskgraph.Key{finalKey}, func(in []any) (any, error) {
		return append([]float64(nil), in[0].(*PCA).ExplainedVariance...), nil
	}, 1e-6)
	return res
}
