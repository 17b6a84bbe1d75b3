package stats

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// GMM is a one-dimensional Gaussian mixture model. BAYWATCH fits a GMM to
// the inter-request interval list of a communication pair: a multi-modal
// fit (selected by BIC) exposes multiple coexisting beaconing periods, such
// as Conficker's fast-beacon/long-sleep alternation.
type GMM struct {
	// Weights, Means and StdDevs are the per-component mixture parameters.
	// All three slices have the same length K.
	Weights []float64
	Means   []float64
	StdDevs []float64
	// LogLikelihood is the total log-likelihood of the training data under
	// the fitted model.
	LogLikelihood float64
	// BIC is the Bayesian information criterion: -2*logL + p*ln(n) with
	// p = 3K - 1 free parameters. Lower is better.
	BIC float64
	// Iterations is the number of EM iterations performed before
	// convergence (or the iteration cap).
	Iterations int
}

// GMMConfig controls the EM fit.
type GMMConfig struct {
	// MaxIterations caps the EM loop. Defaults to 200.
	MaxIterations int
	// Tolerance stops EM when the log-likelihood improvement per point
	// falls below it. Defaults to 1e-8.
	Tolerance float64
	// MinStdDev floors the component standard deviations to keep the
	// likelihood bounded when a component collapses onto duplicated points.
	// Defaults to 1e-3 times the data range (or 1e-6 absolute for
	// degenerate data).
	MinStdDev float64
}

func (c GMMConfig) withDefaults(xs []float64) GMMConfig {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 200
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-8
	}
	if c.MinStdDev <= 0 {
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		c.MinStdDev = (mx - mn) * 1e-3
		if c.MinStdDev <= 0 {
			c.MinStdDev = 1e-6
		}
	}
	return c
}

// ErrBadComponentCount is returned when k is not positive or exceeds the
// number of observations.
var ErrBadComponentCount = errors.New("stats: component count must be in [1, len(data)]")

// ErrNonFinite is returned when the data to fit contains NaN or ±Inf: EM
// cannot converge on it and would only produce a NaN model.
var ErrNonFinite = errors.New("stats: data contains NaN or Inf")

// FitGMM fits a k-component mixture to xs with expectation-maximization.
// Initialization is deterministic (quantile-based), so repeated fits on the
// same data produce identical models — a requirement for reproducible
// pipeline runs. xs holding NaN or ±Inf is an ErrNonFinite error.
func FitGMM(xs []float64, k int, cfg GMMConfig) (*GMM, error) {
	n := len(xs)
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadComponentCount, k, n)
	}
	var s GMMScratch
	if err := s.load(xs, k); err != nil {
		return nil, err
	}
	return s.fit(xs, k, cfg.withDefaults(xs)), nil
}

// GMMSelection is the result of BIC-based model selection across component
// counts.
type GMMSelection struct {
	// Best is the model with the lowest BIC.
	Best *GMM
	// K is the chosen component count.
	K int
	// BICs[k-1] is the BIC of the k-component fit, for k = 1..len(BICs).
	BICs []float64
}

// FitBestGMM fits mixtures with 1..maxK components and returns the one with
// the lowest BIC, reproducing the "BIC vs #components" selection of the
// paper's Fig. 7. maxK is clamped to len(xs). xs holding NaN or ±Inf is
// an ErrNonFinite error.
func FitBestGMM(xs []float64, maxK int, cfg GMMConfig) (*GMMSelection, error) {
	var s GMMScratch
	return s.FitBestGMM(xs, maxK, cfg)
}

// GMMScratch is the workspace of one BIC selection, shared by its fits for
// k = 1..maxK and reusable across selections. The zero value is ready to
// use; buffers grow on first use and are kept. A GMMScratch is NOT safe
// for concurrent use.
//
// The sample is sorted once and grouped into its distinct values (by bit
// pattern), with a per-point group index. Each EM iteration then evaluates
// the E-step — log-densities, log-sum-exp, responsibilities — once per
// distinct value instead of once per point: a pair's intervals are integer
// seconds and repeat heavily. Everything that accumulates over points (the
// log-likelihood and the M-step sums) still runs per point, in input
// order, reading its value's shared E-step result; every sum therefore
// sees the same operands in the same order as a per-point E-step, and the
// fitted models are bit-identical to it.
type GMMScratch struct {
	keyed []keyedPoint // sample indices in ascending value order
	group []int32      // group[i]: index into vals of the i-th point
	buf   []float64    // backing store of the float slices below

	sorted []float64 // sample, ascending (quantile initialization)
	vals   []float64 // distinct values, ascending
	top    float64   // re-seed point of a dead component
	logSum []float64 // per distinct value: log mixture density
	comp   []float64 // per component: log weight, then log standard deviation
	resp   []float64 // k rows of len(vals): log-densities, then responsibilities
}

// keyedPoint is one sample index with an order-preserving key of its value.
type keyedPoint struct {
	key uint64
	idx int32
}

// orderKey maps a finite float to a uint64 whose unsigned order is the
// float order, with -0 below +0; equal keys mean equal bit patterns.
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// FitBestGMM is the package-level FitBestGMM running in s. The returned
// selection does not reference s.
func (s *GMMScratch) FitBestGMM(xs []float64, maxK int, cfg GMMConfig) (*GMMSelection, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	if maxK < 1 {
		maxK = 1
	}
	if maxK > len(xs) {
		maxK = len(xs)
	}
	if err := s.load(xs, maxK); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(xs)
	sel := &GMMSelection{BICs: make([]float64, 0, maxK)}
	for k := 1; k <= maxK; k++ {
		g := s.fit(xs, k, cfg)
		sel.BICs = append(sel.BICs, g.BIC)
		if sel.Best == nil || g.BIC < sel.Best.BIC {
			sel.Best = g
			sel.K = k
		}
	}
	return sel, nil
}

// load sorts and groups xs and sizes the buffers for fits of up to maxK
// components.
func (s *GMMScratch) load(xs []float64, maxK int) error {
	n := len(xs)
	if cap(s.keyed) < n {
		s.keyed = make([]keyedPoint, n)
		s.group = make([]int32, n)
	}
	s.keyed, s.group = s.keyed[:n], s.group[:n]
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return ErrNonFinite
		}
		s.keyed[i] = keyedPoint{key: orderKey(x), idx: int32(i)}
	}
	slices.SortFunc(s.keyed, func(a, b keyedPoint) int { return cmp.Compare(a.key, b.key) })

	size := 3*n + 2*maxK + maxK*n
	if cap(s.buf) < size {
		s.buf = make([]float64, size)
	}
	buf := s.buf[:size]
	s.sorted, s.vals, s.logSum = buf[:n], buf[n:n:2*n], buf[2*n:3*n]
	s.comp, s.resp = buf[3*n:3*n+2*maxK], buf[3*n+2*maxK:]

	for r, p := range s.keyed {
		if r == 0 || p.key != s.keyed[r-1].key {
			s.vals = append(s.vals, xs[p.idx])
		}
		s.sorted[r] = xs[p.idx]
		s.group[p.idx] = int32(len(s.vals) - 1)
	}

	// A dead component is re-seeded on the last element of the sorted
	// sample. Equal-comparing elements share a bit pattern except +0 and
	// -0, which this order splits but sort.Float64s leaves in an order of
	// its own choosing; when the maximum is such a zero, take the element
	// sort.Float64s puts last.
	s.top = s.sorted[n-1]
	if nv := len(s.vals); nv > 1 && math.Float64bits(s.vals[nv-1]) == 0 && math.Float64bits(s.vals[nv-2]) == 1<<63 {
		tmp := append([]float64(nil), xs...)
		sort.Float64s(tmp)
		s.top = tmp[n-1]
	}
	return nil
}

// fit runs EM for k components over the sample s was loaded with. cfg must
// already carry its defaults.
func (s *GMMScratch) fit(xs []float64, k int, cfg GMMConfig) *GMM {
	n := len(xs)
	nv := len(s.vals)
	params := make([]float64, 3*k)
	g := &GMM{
		Weights: params[:k:k],
		Means:   params[k : 2*k : 2*k],
		StdDevs: params[2*k:],
	}
	// Quantile initialization: component j owns the j-th slice of the
	// sorted data.
	for j := 0; j < k; j++ {
		lo := j * n / k
		hi := (j + 1) * n / k
		if hi <= lo {
			hi = lo + 1
		}
		seg := s.sorted[lo:hi]
		g.Weights[j] = float64(len(seg)) / float64(n)
		g.Means[j] = Mean(seg)
		sd := StdDev(seg)
		if sd < cfg.MinStdDev {
			sd = cfg.MinStdDev
		}
		g.StdDevs[j] = sd
	}

	group, resp, logSum := s.group, s.resp[:k*nv], s.logSum[:nv]
	logW, logSD := s.comp[:k], s.comp[k:2*k]
	halfLog2Pi := 0.5 * math.Log(2*math.Pi)

	prevLL := math.Inf(-1)
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		g.Iterations = iter
		for j := 0; j < k; j++ {
			logW[j] = math.Log(math.Max(g.Weights[j], 1e-300))
			logSD[j] = math.Log(g.StdDevs[j])
		}
		// E-step with log-sum-exp for numerical stability, once per
		// distinct value.
		for v, x := range s.vals {
			maxLp := math.Inf(-1)
			for j := 0; j < k; j++ {
				lp := logW[j] + logNormalPDF(x, g.Means[j], g.StdDevs[j], logSD[j], halfLog2Pi)
				resp[j*nv+v] = lp
				if lp > maxLp {
					maxLp = lp
				}
			}
			var sum float64
			for j := 0; j < k; j++ {
				sum += math.Exp(resp[j*nv+v] - maxLp)
			}
			ls := maxLp + math.Log(sum)
			logSum[v] = ls
			for j := 0; j < k; j++ {
				resp[j*nv+v] = math.Exp(resp[j*nv+v] - ls)
			}
		}
		var ll float64
		for _, v := range group {
			ll += logSum[v]
		}
		g.LogLikelihood = ll

		// M-step.
		for j := 0; j < k; j++ {
			rj := resp[j*nv : (j+1)*nv]
			var nj, mu float64
			for i, x := range xs {
				r := rj[group[i]]
				nj += r
				mu += r * x
			}
			if nj < 1e-10 {
				// Dead component: re-seed it on the most extreme point to
				// keep the model full rank.
				g.Weights[j] = 1e-6
				g.Means[j] = s.top
				g.StdDevs[j] = cfg.MinStdDev
				continue
			}
			mu /= nj
			var va float64
			for i, x := range xs {
				d := x - mu
				va += rj[group[i]] * d * d
			}
			va /= nj
			g.Weights[j] = nj / float64(n)
			g.Means[j] = mu
			sd := math.Sqrt(va)
			if sd < cfg.MinStdDev {
				sd = cfg.MinStdDev
			}
			g.StdDevs[j] = sd
		}

		if ll-prevLL < cfg.Tolerance*float64(n) && iter > 1 {
			break
		}
		prevLL = ll
	}

	p := float64(3*k - 1)
	g.BIC = -2*g.LogLikelihood + p*math.Log(float64(n))
	return g
}

// DominantComponents returns the means of components whose weight is at
// least minWeight, ordered by descending weight. These are the candidate
// periods a multi-modal interval distribution suggests.
func (g *GMM) DominantComponents(minWeight float64) []float64 {
	type comp struct{ w, m float64 }
	var cs []comp
	for j := range g.Weights {
		if g.Weights[j] >= minWeight {
			cs = append(cs, comp{g.Weights[j], g.Means[j]})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].w > cs[j].w })
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.m
	}
	return out
}
