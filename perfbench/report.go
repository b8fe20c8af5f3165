package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateMetrics rejects a metric list the result line could not carry:
// a malformed or repeated name, a missing unit, or a non-finite value.
func validateMetrics(ms []metric) error {
	seen := map[string]bool{}
	for _, m := range ms {
		if !nameRE.MatchString(m.name) {
			return fmt.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if !unitRE.MatchString(m.unit) {
			return fmt.Errorf("metric %s has unit %q, which does not match %s", m.name, m.unit, unitRE)
		}
		if seen[m.name] {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		seen[m.name] = true
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
	}
	return nil
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. It does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPercentile returns the highest of p99 and p90 that has at least
// ten of n samples beyond it; ok is false when neither has, and only the
// median may then be reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{0.99, 0.90} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// ratio divides, reading 0 where the denominator is 0: a layer the
// workload never exercises.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
