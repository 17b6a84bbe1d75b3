package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestFitGMMErrors(t *testing.T) {
	if _, err := FitGMM([]float64{1, 2}, 0, GMMConfig{}); err == nil {
		t.Error("expected error for k = 0")
	}
	if _, err := FitGMM([]float64{1, 2}, 3, GMMConfig{}); err == nil {
		t.Error("expected error for k > n")
	}
	if _, err := FitBestGMM(nil, 3, GMMConfig{}); err == nil {
		t.Error("expected error for empty data")
	}
}

func TestFitGMMNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		xs := []float64{60, 61, bad, 59, 60}
		if g, err := FitGMM(xs, 2, GMMConfig{}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("FitGMM with %v: got %+v, %v; want ErrNonFinite", bad, g, err)
		}
		if sel, err := FitBestGMM(xs, 3, GMMConfig{}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("FitBestGMM with %v: got %+v, %v; want ErrNonFinite", bad, sel, err)
		}
	}
}

func TestFitGMMSingleComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 100 + rng.NormFloat64()*5
	}
	g, err := FitGMM(xs, 1, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(g.Weights[0], 1, 1e-9) {
		t.Errorf("weight = %v, want 1", g.Weights[0])
	}
	if math.Abs(g.Means[0]-100) > 1 {
		t.Errorf("mean = %v, want ~100", g.Means[0])
	}
	if math.Abs(g.StdDevs[0]-5) > 1 {
		t.Errorf("sd = %v, want ~5", g.StdDevs[0])
	}
}

func TestFitGMMTwoWellSeparatedComponents(t *testing.T) {
	// Conficker-like interval mixture: fast beacons ~7.5 s (many) and long
	// sleeps ~10800 s (few). Fig. 7 of the paper shows GMM recovering the
	// component means.
	rng := rand.New(rand.NewSource(2))
	var xs []float64
	for i := 0; i < 900; i++ {
		xs = append(xs, 7.5+rng.NormFloat64()*0.5)
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, 10800+rng.NormFloat64()*60)
	}
	g, err := FitGMM(xs, 2, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	means := append([]float64(nil), g.Means...)
	sort.Float64s(means)
	if math.Abs(means[0]-7.5) > 1 {
		t.Errorf("fast component mean = %v, want ~7.5", means[0])
	}
	if math.Abs(means[1]-10800) > 200 {
		t.Errorf("slow component mean = %v, want ~10800", means[1])
	}
	// Weight ordering: the fast component holds ~90% of the mass.
	var fastW float64
	for j := range g.Means {
		if math.Abs(g.Means[j]-means[0]) < 1 {
			fastW = g.Weights[j]
		}
	}
	if math.Abs(fastW-0.9) > 0.05 {
		t.Errorf("fast component weight = %v, want ~0.9", fastW)
	}
}

func TestFitBestGMMSelectsCorrectOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	// Unimodal data: BIC must select k = 1.
	uni := make([]float64, 400)
	for i := range uni {
		uni[i] = 50 + rng.NormFloat64()*3
	}
	sel, err := FitBestGMM(uni, 4, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 {
		t.Errorf("unimodal: selected k = %d, want 1 (BICs %v)", sel.K, sel.BICs)
	}

	// Bimodal data: BIC must select k = 2.
	var bi []float64
	for i := 0; i < 300; i++ {
		bi = append(bi, 10+rng.NormFloat64())
	}
	for i := 0; i < 300; i++ {
		bi = append(bi, 200+rng.NormFloat64()*5)
	}
	sel, err = FitBestGMM(bi, 4, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 2 {
		t.Errorf("bimodal: selected k = %d, want 2 (BICs %v)", sel.K, sel.BICs)
	}
	if len(sel.BICs) != 4 {
		t.Errorf("len(BICs) = %d, want 4", len(sel.BICs))
	}
}

func TestFitGMMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	g1, err := FitGMM(xs, 3, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FitGMM(xs, 3, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range g1.Means {
		if g1.Means[j] != g2.Means[j] || g1.Weights[j] != g2.Weights[j] || g1.StdDevs[j] != g2.StdDevs[j] {
			t.Fatalf("non-deterministic fit: %+v vs %+v", g1, g2)
		}
	}
}

func TestFitGMMDuplicatedPoints(t *testing.T) {
	// All-identical observations must not produce NaNs (variance floor).
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 42
	}
	g, err := FitGMM(xs, 2, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range g.Means {
		if math.IsNaN(g.Means[j]) || math.IsNaN(g.StdDevs[j]) || g.StdDevs[j] <= 0 {
			t.Fatalf("degenerate component %d: %+v", j, g)
		}
	}
	if math.IsNaN(g.BIC) || math.IsInf(g.BIC, 0) {
		t.Errorf("BIC = %v", g.BIC)
	}
}

func TestGMMWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	for k := 1; k <= 4; k++ {
		g, err := FitGMM(xs, k, GMMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, w := range g.Weights {
			sum += w
		}
		if !almostEqual(sum, 1, 1e-6) {
			t.Errorf("k=%d: weights sum to %v", k, sum)
		}
	}
}

func TestDominantComponents(t *testing.T) {
	g := &GMM{
		Weights: []float64{0.46, 0.53, 0.01},
		Means:   []float64{175.12, 4.51, 82},
		StdDevs: []float64{1, 1, 1},
	}
	doms := g.DominantComponents(0.05)
	if len(doms) != 2 {
		t.Fatalf("dominant components = %v, want 2", doms)
	}
	if doms[0] != 4.51 || doms[1] != 175.12 {
		t.Errorf("doms = %v, want [4.51 175.12] (weight-ordered)", doms)
	}
	if all := g.DominantComponents(0); len(all) != 3 {
		t.Errorf("minWeight 0 should return all components, got %v", all)
	}
}

func TestFitBestGMMClampsK(t *testing.T) {
	xs := []float64{1, 2, 3}
	sel, err := FitBestGMM(xs, 10, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.BICs) != 3 {
		t.Errorf("BICs length = %d, want clamped to 3", len(sel.BICs))
	}
	sel, err = FitBestGMM(xs, 0, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 {
		t.Errorf("maxK=0 should clamp to 1, got k=%d", sel.K)
	}
}

func BenchmarkFitGMM_1000x3(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 1000)
	for i := range xs {
		switch i % 3 {
		case 0:
			xs[i] = 10 + rng.NormFloat64()
		case 1:
			xs[i] = 60 + rng.NormFloat64()*2
		default:
			xs[i] = 300 + rng.NormFloat64()*10
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGMM(xs, 3, GMMConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// fitGMMReference is the per-point EM FitGMM ran before its E-step moved to
// distinct values: every point evaluates its own log-densities and
// responsibilities. FitGMM must reproduce it bit for bit.
func fitGMMReference(xs []float64, k int, cfg GMMConfig) (*GMM, error) {
	n := len(xs)
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadComponentCount, k, n)
	}
	cfg = cfg.withDefaults(xs)

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	g := &GMM{
		Weights: make([]float64, k),
		Means:   make([]float64, k),
		StdDevs: make([]float64, k),
	}
	// Quantile initialization: component j owns the j-th slice of the
	// sorted data.
	for j := 0; j < k; j++ {
		lo := j * n / k
		hi := (j + 1) * n / k
		if hi <= lo {
			hi = lo + 1
		}
		seg := sorted[lo:hi]
		g.Weights[j] = float64(len(seg)) / float64(n)
		g.Means[j] = Mean(seg)
		sd := StdDev(seg)
		if sd < cfg.MinStdDev {
			sd = cfg.MinStdDev
		}
		g.StdDevs[j] = sd
	}

	resp := make([][]float64, k)
	for j := range resp {
		resp[j] = make([]float64, n)
	}
	logW := make([]float64, k)

	prevLL := math.Inf(-1)
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		g.Iterations = iter
		for j := 0; j < k; j++ {
			logW[j] = math.Log(math.Max(g.Weights[j], 1e-300))
		}
		// E-step with log-sum-exp for numerical stability.
		var ll float64
		for i, x := range xs {
			maxLp := math.Inf(-1)
			for j := 0; j < k; j++ {
				lp := logW[j] + LogNormalPDF(x, g.Means[j], g.StdDevs[j])
				resp[j][i] = lp
				if lp > maxLp {
					maxLp = lp
				}
			}
			var sum float64
			for j := 0; j < k; j++ {
				sum += math.Exp(resp[j][i] - maxLp)
			}
			logSum := maxLp + math.Log(sum)
			ll += logSum
			for j := 0; j < k; j++ {
				resp[j][i] = math.Exp(resp[j][i] - logSum)
			}
		}
		g.LogLikelihood = ll

		// M-step.
		for j := 0; j < k; j++ {
			var nj, mu float64
			for i, x := range xs {
				nj += resp[j][i]
				mu += resp[j][i] * x
			}
			if nj < 1e-10 {
				// Dead component: re-seed it on the most extreme point to
				// keep the model full rank.
				g.Weights[j] = 1e-6
				g.Means[j] = sorted[n-1]
				g.StdDevs[j] = cfg.MinStdDev
				continue
			}
			mu /= nj
			var va float64
			for i, x := range xs {
				d := x - mu
				va += resp[j][i] * d * d
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
	return g, nil
}

// gmmBitsDiff describes the first field where got and want differ in bit
// pattern (or iteration count), or returns "" when they are identical.
func gmmBitsDiff(got, want *GMM) string {
	fields := []struct {
		name      string
		got, want []float64
	}{
		{"Weights", got.Weights, want.Weights},
		{"Means", got.Means, want.Means},
		{"StdDevs", got.StdDevs, want.StdDevs},
	}
	for _, sl := range fields {
		if len(sl.got) != len(sl.want) {
			return fmt.Sprintf("len(%s) = %d, want %d", sl.name, len(sl.got), len(sl.want))
		}
		for j := range sl.got {
			if math.Float64bits(sl.got[j]) != math.Float64bits(sl.want[j]) {
				return fmt.Sprintf("%s[%d] = %v (%#x), want %v (%#x)", sl.name, j,
					sl.got[j], math.Float64bits(sl.got[j]), sl.want[j], math.Float64bits(sl.want[j]))
			}
		}
	}
	if math.Float64bits(got.LogLikelihood) != math.Float64bits(want.LogLikelihood) {
		return fmt.Sprintf("LogLikelihood = %v, want %v", got.LogLikelihood, want.LogLikelihood)
	}
	if math.Float64bits(got.BIC) != math.Float64bits(want.BIC) {
		return fmt.Sprintf("BIC = %v, want %v", got.BIC, want.BIC)
	}
	if got.Iterations != want.Iterations {
		return fmt.Sprintf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	}
	return ""
}

// checkGMMMatchesReference compares FitGMM for k = 1..maxK and FitBestGMM
// against per-k reference fits, bit for bit.
func checkGMMMatchesReference(t *testing.T, xs []float64, maxK int) {
	t.Helper()
	if maxK > len(xs) {
		maxK = len(xs)
	}
	refs := make([]*GMM, maxK)
	for k := 1; k <= maxK; k++ {
		want, err := fitGMMReference(xs, k, GMMConfig{})
		if err != nil {
			t.Fatalf("reference k=%d: %v", k, err)
		}
		got, err := FitGMM(xs, k, GMMConfig{})
		if err != nil {
			t.Fatalf("FitGMM k=%d: %v", k, err)
		}
		if d := gmmBitsDiff(got, want); d != "" {
			t.Fatalf("FitGMM k=%d diverges from the reference: %s", k, d)
		}
		refs[k-1] = want
	}
	// The reference selection: FitBestGMM over per-k reference fits.
	var best *GMM
	bestK := 0
	for k, g := range refs {
		if best == nil || g.BIC < best.BIC {
			best, bestK = g, k+1
		}
	}
	sel, err := FitBestGMM(xs, maxK, GMMConfig{})
	if err != nil {
		t.Fatalf("FitBestGMM: %v", err)
	}
	if sel.K != bestK || len(sel.BICs) != maxK {
		t.Fatalf("FitBestGMM K=%d with %d BICs, want K=%d with %d", sel.K, len(sel.BICs), bestK, maxK)
	}
	for k, bic := range sel.BICs {
		if math.Float64bits(bic) != math.Float64bits(refs[k].BIC) {
			t.Fatalf("FitBestGMM BICs[%d] = %v, want %v", k, bic, refs[k].BIC)
		}
	}
	if d := gmmBitsDiff(sel.Best, best); d != "" {
		t.Fatalf("FitBestGMM best model diverges from the reference: %s", d)
	}
}

// realisticIntervals is an integer-second interval list like the detector
// samples from one pair: a jittered 60 s beacon interleaved with
// exponential browsing gaps.
func realisticIntervals(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		if rng.Intn(4) == 0 {
			xs[i] = math.Ceil(rng.ExpFloat64() * 20)
		} else {
			xs[i] = 60 + math.Round(rng.NormFloat64()*2)
		}
	}
	return xs
}

func TestFitGMMMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name  string
		sizes []int
		gen   func(rng *rand.Rand, n int) []float64
	}{
		{"jittered integer beacon", []int{1, 2, 3, 17, 300, 2048}, func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 300 + math.Round(rng.NormFloat64()*5)
			}
			return xs
		}},
		{"conficker two-mode", []int{4, 97, 2048}, func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				if i%10 == 9 {
					xs[i] = 10800 + math.Round(rng.NormFloat64()*60)
				} else {
					xs[i] = 7 + float64(rng.Intn(2))
				}
			}
			return xs
		}},
		{"exponential browsing gaps", []int{5, 250, 2048}, func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Ceil(rng.ExpFloat64() * 30)
			}
			return xs
		}},
		{"beacon plus browsing", []int{64, 2048}, realisticIntervals},
		{"all distinct continuous", []int{2, 33, 1000}, func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 50 + rng.NormFloat64()*20
			}
			return xs
		}},
		{"all identical", []int{1, 2, 50, 2048}, func(_ *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 42
			}
			return xs
		}},
		{"signed zeros", []int{1, 2, 3, 6, 40}, func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(3) {
				case 0:
					xs[i] = negZero
				case 1:
					xs[i] = 0
				default:
					xs[i] = -float64(rng.Intn(5))
				}
			}
			return xs
		}},
	}
	for ci, c := range cases {
		for _, n := range c.sizes {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*ci + n)))
				checkGMMMatchesReference(t, c.gen(rng, n), 3)
			})
		}
	}
}

// FuzzFitGMMMatchesReference feeds FitGMM and FitBestGMM arbitrary finite
// samples and requires the reference's bits. Non-raw inputs decode one
// signed byte per value, so values repeat heavily and 0x80 stands for -0.
func FuzzFitGMMMatchesReference(f *testing.F) {
	f.Add(false, []byte{60, 61, 59, 60, 60, 7, 7, 8, 120})
	f.Add(false, []byte{0, 0x80, 0, 0xff, 0x80, 0xfe})
	// {0, 0, -1, -0, -1}: a component dies onto the maximum, a zero whose
	// sign depends on where sort.Float64s leaves -0.
	f.Add(false, []byte{0, 0, 0xff, 0x80, 0xff})
	f.Add(true, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5)))
	f.Fuzz(func(t *testing.T, raw bool, data []byte) {
		var xs []float64
		if raw {
			for len(data) >= 8 && len(xs) < 256 {
				x := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					xs = append(xs, x)
				}
			}
		} else {
			for _, b := range data {
				if len(xs) == 512 {
					break
				}
				if b == 0x80 {
					xs = append(xs, math.Copysign(0, -1))
				} else {
					xs = append(xs, float64(int8(b)))
				}
			}
		}
		if len(xs) == 0 {
			return
		}
		checkGMMMatchesReference(t, xs, 3)
	})
}

// TestFitBestGMMAllocs pins the allocations of one selection over a
// realistic 2048-interval sample: with a reused GMMScratch only the
// returned selection is allocated (the selection, its BICs, and per k the
// model and its parameter array); a fresh FitBestGMM adds the workspace's
// three buffers.
func TestFitBestGMMAllocs(t *testing.T) {
	xs := realisticIntervals(rand.New(rand.NewSource(7)), 2048)
	var s GMMScratch
	if _, err := s.FitBestGMM(xs, 3, GMMConfig{}); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = s.FitBestGMM(xs, 3, GMMConfig{}) }); allocs > 8 {
		t.Errorf("FitBestGMM with a warm scratch: %v allocs/op, want <= 8", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = FitBestGMM(xs, 3, GMMConfig{}) }); allocs > 11 {
		t.Errorf("FitBestGMM: %v allocs/op, want <= 11", allocs)
	}
}

func BenchmarkFitBestGMM_Intervals2048(b *testing.B) {
	xs := realisticIntervals(rand.New(rand.NewSource(8)), 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitBestGMM(xs, 3, GMMConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
