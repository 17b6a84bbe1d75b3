package stats

import (
	"errors"
	"math"
)

// RegularizedIncompleteBeta computes I_x(a, b), the regularized incomplete
// beta function, for a, b > 0 and 0 <= x <= 1, using the continued-fraction
// expansion of Numerical Recipes (betacf). It is the kernel of the Student-t
// CDF used by the pruning t-test.
func RegularizedIncompleteBeta(a, b, x float64) (float64, error) {
	if a <= 0 || b <= 0 {
		return 0, errors.New("stats: incomplete beta requires a, b > 0")
	}
	if x < 0 || x > 1 {
		return 0, errors.New("stats: incomplete beta requires x in [0, 1]")
	}
	if x == 0 {
		return 0, nil
	}
	if x == 1 { //bw:floatcmp domain boundary; exactly 1 has a closed form
		return 1, nil
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))

	// Use the continued fraction directly when x is below the switch point,
	// and the symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
	if x < (a+1)/(a+b+2) {
		cf, err := betaContinuedFraction(a, b, x)
		if err != nil {
			return 0, err
		}
		return front * cf / a, nil
	}
	cf, err := betaContinuedFraction(b, a, 1-x)
	if err != nil {
		return 0, err
	}
	// front was computed for (a, b, x); recompute for the mirrored call.
	frontM := math.Exp(lbeta - la - lb + b*math.Log(1-x) + a*math.Log(x))
	return 1 - frontM*cf/b, nil
}

// betaContinuedFraction evaluates the Lentz continued fraction for the
// incomplete beta function.
func betaContinuedFraction(a, b, x float64) (float64, error) {
	const (
		maxIter = 300
		tiny    = 1e-300
		epsCF   = 1e-14
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsCF {
			return h, nil
		}
	}
	return 0, errors.New("stats: incomplete beta continued fraction did not converge")
}

// StudentTCDF returns P(T <= t) for a Student t distribution with df
// degrees of freedom.
func StudentTCDF(t, df float64) (float64, error) {
	if df <= 0 {
		return 0, errors.New("stats: t distribution requires df > 0")
	}
	if math.IsNaN(t) {
		return math.NaN(), nil
	}
	if math.IsInf(t, 1) {
		return 1, nil
	}
	if math.IsInf(t, -1) {
		return 0, nil
	}
	x := df / (df + t*t)
	ib, err := RegularizedIncompleteBeta(df/2, 0.5, x)
	if err != nil {
		return 0, err
	}
	p := ib / 2
	if t > 0 {
		return 1 - p, nil
	}
	return p, nil
}

// NormalCDF returns P(X <= x) for a normal distribution with the given mean
// and standard deviation. A non-positive sigma yields a step function.
func NormalCDF(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		if x < mean {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc((mean-x)/(sigma*math.Sqrt2))
}

// NormalPDF returns the density of a normal distribution at x.
func NormalPDF(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (x - mean) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// LogNormalPDF returns log(NormalPDF(x, mean, sigma)), computed without
// underflow for extreme z.
func LogNormalPDF(x, mean, sigma float64) float64 {
	return logNormalPDF(x, mean, sigma, math.Log(sigma), 0.5*math.Log(2*math.Pi))
}

// logNormalPDF is LogNormalPDF with log(sigma) and ½·log(2π) passed in, so
// a caller evaluating many points against one sigma takes both logarithms
// once.
func logNormalPDF(x, mean, sigma, logSigma, halfLog2Pi float64) float64 {
	if sigma <= 0 {
		return math.Inf(-1)
	}
	z := (x - mean) / sigma
	return -0.5*z*z - logSigma - halfLog2Pi
}
