package ml

import (
	"fmt"
	"math"

	"deisago/internal/linalg"
	"deisago/internal/ndarray"
)

// IncrementalPCA computes PCA in minibatches with constant memory — the
// sklearn.decomposition.IncrementalPCA algorithm the paper uses for in
// situ dimensionality reduction (§3.1). Each PartialFit folds a batch
// into the running decomposition via an SVD of the stacked matrix
// [diag(S)·components; X_centered; mean_correction].
type IncrementalPCA struct {
	NComponents int

	Components             *ndarray.Array // (k × features)
	SingularValues         []float64
	Mean                   []float64
	Var                    []float64
	ExplainedVariance      []float64
	ExplainedVarianceRatio []float64
	NoiseVariance          float64
	NSamplesSeen           int
}

// NewIncrementalPCA returns an IPCA estimator extracting k components.
func NewIncrementalPCA(k int) *IncrementalPCA {
	if k <= 0 {
		panic("ml: NComponents must be positive")
	}
	return &IncrementalPCA{NComponents: k}
}

// Clone returns a deep copy; task-graph nodes clone the carried state so
// a shared predecessor result is never mutated.
func (p *IncrementalPCA) Clone() *IncrementalPCA {
	q := &IncrementalPCA{
		NComponents:   p.NComponents,
		NSamplesSeen:  p.NSamplesSeen,
		NoiseVariance: p.NoiseVariance,
	}
	if p.Components != nil {
		q.Components = p.Components.Copy()
	}
	q.SingularValues = append([]float64(nil), p.SingularValues...)
	q.Mean = append([]float64(nil), p.Mean...)
	q.Var = append([]float64(nil), p.Var...)
	q.ExplainedVariance = append([]float64(nil), p.ExplainedVariance...)
	q.ExplainedVarianceRatio = append([]float64(nil), p.ExplainedVarianceRatio...)
	return q
}

// SizeBytes reports the modelled wire size of the estimator state for
// the distributed runtime's transfer cost model.
func (p *IncrementalPCA) SizeBytes() int64 {
	var n int64 = 64
	if p.Components != nil {
		n += int64(p.Components.Size()) * 8
	}
	n += int64(len(p.SingularValues)+len(p.Mean)+len(p.Var)+
		len(p.ExplainedVariance)+len(p.ExplainedVarianceRatio)) * 8
	return n
}

// incrementalMeanVar updates running column mean/variance with a batch
// (scikit-learn's _incremental_mean_and_var).
func incrementalMeanVar(x *ndarray.Array, lastMean, lastVar []float64, lastCount int) (mean, variance []float64, count int) {
	n, f := x.Dim(0), x.Dim(1)
	newSum := x.SumAxis(0).Data()
	count = lastCount + n
	mean = make([]float64, f)
	for j := 0; j < f; j++ {
		lastSum := 0.0
		if lastCount > 0 {
			lastSum = lastMean[j] * float64(lastCount)
		}
		mean[j] = (lastSum + newSum[j]) / float64(count)
	}
	// Batch variance (biased, as in sklearn).
	batchMean := make([]float64, f)
	for j := 0; j < f; j++ {
		batchMean[j] = newSum[j] / float64(n)
	}
	batchVarN := make([]float64, f)
	xc := x.Contiguous()
	xd := xc.Data()
	for i := 0; i < n; i++ {
		row := xd[i*f : (i+1)*f]
		for j, v := range row {
			d := v - batchMean[j]
			batchVarN[j] += d * d
		}
	}
	variance = make([]float64, f)
	if lastCount == 0 {
		for j := 0; j < f; j++ {
			variance[j] = batchVarN[j] / float64(count)
		}
		return mean, variance, count
	}
	lastOverNew := float64(lastCount) / float64(n)
	for j := 0; j < f; j++ {
		lastUnnorm := lastVar[j] * float64(lastCount)
		lastSum := lastMean[j] * float64(lastCount)
		corr := lastSum/lastOverNew - newSum[j]
		unnorm := lastUnnorm + batchVarN[j] +
			lastOverNew/float64(count)*corr*corr
		variance[j] = unnorm / float64(count)
	}
	return mean, variance, count
}

// PartialFit folds one batch (samples × features) into the running
// decomposition.
func (p *IncrementalPCA) PartialFit(x *ndarray.Array) error {
	if x.NDim() != 2 {
		return fmt.Errorf("ml: PartialFit wants a 2-d batch, got shape %v", x.Shape())
	}
	n, f := x.Dim(0), x.Dim(1)
	if p.NSamplesSeen == 0 && p.NComponents > min(n, f) {
		return fmt.Errorf("ml: first batch (%d×%d) smaller than NComponents=%d", n, f, p.NComponents)
	}
	if p.NSamplesSeen > 0 && f != len(p.Mean) {
		return fmt.Errorf("ml: batch has %d features, estimator fitted with %d", f, len(p.Mean))
	}

	mean, variance, total := incrementalMeanVar(x, p.Mean, p.Var, p.NSamplesSeen)

	var stacked *ndarray.Array
	if p.NSamplesSeen == 0 {
		stacked = centerRows(x, mean)
	} else {
		batchMean := x.MeanAxis(0).Data()
		k := p.NComponents
		rows := k + n + 1
		stacked = ndarray.New(rows, f)
		sd := stacked.Data()
		comp := p.Components.Contiguous().Data()
		for r := 0; r < k; r++ {
			sv := p.SingularValues[r]
			row := sd[r*f : (r+1)*f]
			crow := comp[r*f : (r+1)*f]
			for j, c := range crow {
				row[j] = sv * c
			}
		}
		xd := x.Contiguous().Data()
		for i := 0; i < n; i++ {
			row := sd[(k+i)*f : (k+i+1)*f]
			xrow := xd[i*f : (i+1)*f]
			for j, v := range xrow {
				row[j] = v - batchMean[j]
			}
		}
		corr := math.Sqrt(float64(p.NSamplesSeen) * float64(n) / float64(total))
		last := sd[(k+n)*f : (k+n+1)*f]
		for j := 0; j < f; j++ {
			last[j] = corr * (p.Mean[j] - batchMean[j])
		}
	}

	u, s, v := linalg.SVD(stacked)
	vt := v.Transpose().Copy()
	svdFlip(u, vt)

	k := p.NComponents
	p.Components = vt.Slice(ndarray.Range{Start: 0, Stop: k}, ndarray.Range{Start: 0, Stop: f}).Copy()
	p.SingularValues = append([]float64(nil), s[:k]...)
	p.Mean = mean
	p.Var = variance
	p.NSamplesSeen = total

	denom := float64(total - 1)
	if denom <= 0 {
		denom = 1
	}
	explained := make([]float64, len(s))
	for i, sv := range s {
		explained[i] = sv * sv / denom
	}
	p.ExplainedVariance = append([]float64(nil), explained[:k]...)
	totalVar := 0.0
	for _, vv := range variance {
		totalVar += vv * float64(total)
	}
	p.ExplainedVarianceRatio = make([]float64, k)
	if totalVar > 0 {
		for i := 0; i < k; i++ {
			p.ExplainedVarianceRatio[i] = s[i] * s[i] / totalVar
		}
	}
	if len(explained) > k {
		sum := 0.0
		for _, e := range explained[k:] {
			sum += e
		}
		p.NoiseVariance = sum / float64(len(explained)-k)
	} else {
		p.NoiseVariance = 0
	}
	return nil
}

// Fit runs PartialFit over row-batches of the given size.
func (p *IncrementalPCA) Fit(x *ndarray.Array, batchSize int) error {
	if batchSize <= 0 {
		return fmt.Errorf("ml: batchSize must be positive")
	}
	n := x.Dim(0)
	for start := 0; start < n; start += batchSize {
		stop := start + batchSize
		if stop > n {
			stop = n
		}
		batch := x.Slice(ndarray.Range{Start: start, Stop: stop},
			ndarray.Range{Start: 0, Stop: x.Dim(1)}).Copy()
		if err := p.PartialFit(batch); err != nil {
			return err
		}
	}
	return nil
}
