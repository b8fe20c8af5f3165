package ispnet

import (
	"math/bits"
	"slices"
	"time"

	"fantasticjoules/internal/trafficgen"
)

// stepGrid is the study window's SNMP-cadence step grid together with
// every per-step quantity that depends only on the step time: the
// unix-nanosecond timestamp column every series and chunk is keyed by,
// the unix seconds the noise hashes fold in, and the traffic multipliers.
// It is built once per window — a cold run builds one, a Fleet keeps one
// for its lifetime — and shared read-only by every shard, so no shard
// evaluates a multiplier and a Resimulate evaluates none at all.
//
// Exactly one multiplier column is populated: mult (the network-wide
// diurnal multiplier) on the calibrated fleet, cohort (the per-cohort
// multiplier vector) on hierarchical fleets — each fleet's load model
// reads only its own.
type stepGrid struct {
	times []time.Time
	nanos []int64
	unix  []int64

	mult   []float64
	cohort [][trafficgen.NumCohorts]float64
}

// stepGrid builds the network's step grid; see the stepGrid type.
func (n *Network) stepGrid() *stepGrid {
	cfg := n.Config
	numSteps := 0
	if cfg.SNMPStep > 0 {
		numSteps = int(cfg.Duration/cfg.SNMPStep) + 1
	}
	g := &stepGrid{
		times: make([]time.Time, 0, numSteps),
		nanos: make([]int64, 0, numSteps),
		unix:  make([]int64, 0, numSteps),
	}
	if n.hier {
		g.cohort = make([][trafficgen.NumCohorts]float64, 0, numSteps)
	} else {
		g.mult = make([]float64, 0, numSteps)
	}
	end := cfg.Start.Add(cfg.Duration)
	for t := cfg.Start; t.Before(end); t = t.Add(cfg.SNMPStep) {
		g.times = append(g.times, t)
		g.nanos = append(g.nanos, t.UnixNano())
		g.unix = append(g.unix, t.Unix())
		if n.hier {
			var cm [trafficgen.NumCohorts]float64
			trafficgen.CohortMultipliers(t, &cm)
			g.cohort = append(g.cohort, cm)
		} else {
			g.mult = append(g.mult, n.diurnal.Multiplier(t, nil))
		}
	}
	return g
}

// wallStats is one router's median and peak wall power over its deployed
// steps, in watts. ok is false for a router that was never deployed in
// the window (it then has no entry in the dataset's wall maps).
type wallStats struct {
	median, peak float64
	ok           bool
}

// selectWallStats computes the median and peak of the samples by
// deterministic selection — no rng, no full sort — reordering them in
// place. The results equal what sorting with sort.Float64s yields
// (the peak is the last sorted sample; an even count averages the two
// middle ones, lower first), up to the one freedom the sort itself has:
// which of several samples that compare equal (+0 and −0, or NaNs) lands
// at a rank. Play calls it once per shard, after the window.
//
//joules:hotpath
func selectWallStats(samples []float64) wallStats {
	n := len(samples)
	if n == 0 {
		return wallStats{}
	}
	peak := samples[0]
	for _, v := range samples[1:] {
		if floatLess(peak, v) {
			peak = v
		}
	}
	mid := n / 2
	selectNth(samples, mid)
	median := samples[mid]
	if n%2 == 0 {
		// selectNth left every sample below mid not greater than
		// samples[mid]; the lower middle is the largest of them.
		lo := samples[0]
		for _, v := range samples[1:mid] {
			if floatLess(lo, v) {
				lo = v
			}
		}
		median = (lo + median) / 2
	}
	return wallStats{median: median, peak: peak, ok: true}
}

// floatLess is sort.Float64s' order: numeric, with NaN below every
// number.
func floatLess(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// selectNth reorders s so that s[k] holds the value that sorting s would
// put there, no element of s[:k] is greater and no element of s[k+1:] is
// smaller. It is an iterative quickselect with a median-of-three pivot
// and a three-way partition, so runs of equal samples (a router at
// constant power, or all zeros while every PSU is offline) finish in one
// pass. After 2·log2(n) rounds that have not converged it sorts what
// remains, which bounds the worst case at O(n log n).
func selectNth(s []float64, k int) {
	lo, hi := 0, len(s)
	budget := 2 * bits.Len(uint(len(s)))
	for hi-lo > 1 {
		if budget == 0 {
			slices.Sort(s[lo:hi])
			return
		}
		budget--
		p := median3(s[lo], s[lo+(hi-lo)/2], s[hi-1])
		// s[lo:lt] < p, s[lt:i] == p, s[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case floatLess(v, p):
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case floatLess(p, v):
				gt--
				s[gt], s[i] = v, s[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// median3 returns the middle of three values under floatLess.
func median3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
}
