// Package timeseries provides the trace container shared by the SNMP
// poller, the Autopower measurement system, and the analyses: an ordered
// sequence of (timestamp, value) points with resampling, alignment,
// smoothing, arithmetic, and counter-to-rate conversion.
//
// The paper works with two very different time bases — 5-minute SNMP polls
// and 0.5-second Autopower samples — and repeatedly aligns, averages
// (30-minute smoothing in Fig. 4), and aggregates them (network totals in
// Fig. 1). This package implements those operations once, with explicit
// semantics.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is a single timestamped sample.
type Point struct {
	T time.Time
	V float64
}

// Series is an ordered sequence of points. The zero value is an empty
// series ready to use. Points are kept sorted by time; Append enforces the
// ordering cheaply for the common in-order case.
//
// Storage is columnar — one []int64 of unix-nanosecond timestamps beside
// one []float64 of values — so the fleet simulation's hot append loop
// touches two flat arrays instead of a slice of structs, the value
// operations (Mean, Smooth, the order statistics) scan a contiguous
// float64 array, and a capacity hint (NewWithCap) makes a full trace a
// single allocation per column. Timestamps therefore live in the unix-nano
// range (years 1678–2262); accessors return them in UTC.
//
// A Series is not safe for concurrent use: even read methods may fix up
// internal state lazily (time ordering, the value-sorted cache consumed by
// Median). Confine a series to one goroutine — as the fleet
// simulation does with its per-router shards — or synchronize externally.
type Series struct {
	Name string
	ts   []int64 // unix nanoseconds, ascending once sorted
	vs   []float64
	// sorted records whether ts is currently ascending; Append clears it
	// only when an out-of-order sample arrives.
	sorted bool
	// valsSorted caches the value-sorted samples behind Median; Append
	// invalidates it. Reusing the buffer means repeated
	// order statistics on a series with tens of thousands of points cost
	// one sort, not a fresh allocation plus sort per call.
	valsSorted []float64
	valsOK     bool
}

// New returns an empty series with the given name.
func New(name string) *Series {
	return &Series{Name: name, sorted: true}
}

// NewWithCap returns an empty series preallocated for n points. Callers
// that know their sample count up front — the fleet replay knows its step
// grid exactly — avoid every growth reallocation of the append path.
func NewWithCap(name string, n int) *Series {
	if n < 0 {
		n = 0
	}
	return &Series{
		Name:   name,
		sorted: true,
		ts:     make([]int64, 0, n),
		vs:     make([]float64, 0, n),
	}
}

// FromColumns returns a series that adopts parallel timestamp
// (unix-nanosecond) and value columns without copying them: the caller
// hands both slices over and must not use them afterwards. The columns
// must be the same length. Their time order is checked once, here; an
// out-of-order column is fixed up lazily, as for Append.
func FromColumns(name string, ts []int64, vs []float64) *Series {
	if len(ts) != len(vs) {
		panic(fmt.Sprintf("timeseries: FromColumns column lengths %d vs %d", len(ts), len(vs)))
	}
	s := &Series{Name: name, ts: ts, vs: vs, sorted: true}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			s.sorted = false
			break
		}
	}
	return s
}

// FromPoints builds a series from a point slice; the points are copied and
// sorted by time.
func FromPoints(name string, pts []Point) *Series {
	s := NewWithCap(name, len(pts))
	for _, p := range pts {
		s.Append(p.T, p.V)
	}
	s.ensureSorted()
	return s
}

// Append adds a sample. Out-of-order appends are accepted and fixed up
// lazily on the next read.
func (s *Series) Append(t time.Time, v float64) {
	s.appendNano(t.UnixNano(), v)
}

func (s *Series) appendNano(ns int64, v float64) {
	if n := len(s.ts); n > 0 && ns < s.ts[n-1] {
		s.sorted = false
	} else if len(s.ts) == 0 {
		s.sorted = true
	}
	s.valsOK = false
	s.ts = append(s.ts, ns)
	s.vs = append(s.vs, v)
}

// Blocks calls fn over the series in time order, in runs of at most size
// points (size ≤ 0 means one run covering everything). The slices passed
// to fn alias the series' internal columns: they are valid only for the
// duration of the call and must not be mutated. It is the zero-copy
// iteration the streaming spill path uses to chunk a trace.
func (s *Series) Blocks(size int, fn func(ts []int64, vs []float64) error) error {
	s.ensureSorted()
	if size <= 0 {
		size = len(s.ts)
		if size == 0 {
			return nil
		}
	}
	for i := 0; i < len(s.ts); i += size {
		j := i + size
		if j > len(s.ts) {
			j = len(s.ts)
		}
		if err := fn(s.ts[i:j], s.vs[i:j]); err != nil {
			return err
		}
	}
	return nil
}

// byTime sorts the two columns together, stably, by timestamp.
type byTime struct{ s *Series }

func (b byTime) Len() int           { return len(b.s.ts) }
func (b byTime) Less(i, j int) bool { return b.s.ts[i] < b.s.ts[j] }
func (b byTime) Swap(i, j int) {
	b.s.ts[i], b.s.ts[j] = b.s.ts[j], b.s.ts[i]
	b.s.vs[i], b.s.vs[j] = b.s.vs[j], b.s.vs[i]
}

func (s *Series) ensureSorted() {
	if s.sorted {
		return
	}
	sort.Stable(byTime{s})
	s.sorted = true
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.ts) }

// reset empties the series for reuse under a new name, keeping the
// backing arrays so refilling to a similar length allocates nothing.
// Every *Into operation starts with a reset of its destination.
func (s *Series) reset(name string) {
	s.Name = name
	s.ts = s.ts[:0]
	s.vs = s.vs[:0]
	s.sorted = true
	s.valsOK = false
}

// Reset empties the series for reuse, keeping its backing capacity. It
// is the public entry point for scratch-buffer owners (the experiments
// suite's arena); the *Into operations reset their destination
// themselves.
func (s *Series) Reset() { s.reset(s.Name) }

// grow ensures the value column (and timestamp column) can hold n
// points without reallocation, preserving current contents.
func (s *Series) grow(n int) {
	if cap(s.ts) < n {
		ts := make([]int64, len(s.ts), n)
		copy(ts, s.ts)
		s.ts = ts
	}
	if cap(s.vs) < n {
		vs := make([]float64, len(s.vs), n)
		copy(vs, s.vs)
		s.vs = vs
	}
}

// At returns the i-th point in time order.
func (s *Series) At(i int) Point {
	s.ensureSorted()
	return Point{T: time.Unix(0, s.ts[i]).UTC(), V: s.vs[i]}
}

// Value returns the i-th value in time order without materializing the
// timestamp — the accessor for value-only scans.
func (s *Series) Value(i int) float64 {
	s.ensureSorted()
	return s.vs[i]
}

// NanoAt returns the i-th timestamp in time order as unix nanoseconds —
// the allocation-free accessor for hot loops that only compare clocks.
func (s *Series) NanoAt(i int) int64 {
	s.ensureSorted()
	return s.ts[i]
}

// Points returns the points in time order. With columnar storage the
// slice is materialized fresh on every call; iterate with Len/At/Value on
// hot paths.
func (s *Series) Points() []Point {
	s.ensureSorted()
	out := make([]Point, len(s.ts))
	for i, ns := range s.ts {
		out[i] = Point{T: time.Unix(0, ns).UTC(), V: s.vs[i]}
	}
	return out
}

// Values returns the values in time order as a fresh slice.
func (s *Series) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.vs))
	copy(out, s.vs)
	return out
}

// Between returns a new series restricted to points with from ≤ t < to.
func (s *Series) Between(from, to time.Time) *Series {
	return s.BetweenInto(from, to, New(s.Name))
}

// BetweenInto is Between writing into dst instead of allocating: dst is
// reset (keeping its backing capacity) and filled with the points in
// [from, to). It returns dst. dst must not alias s. The values are
// bit-identical to Between's.
func (s *Series) BetweenInto(from, to time.Time, dst *Series) *Series {
	s.ensureSorted()
	fromNs, toNs := from.UnixNano(), to.UnixNano()
	lo := sort.Search(len(s.ts), func(i int) bool { return s.ts[i] >= fromNs })
	hi := sort.Search(len(s.ts), func(i int) bool { return s.ts[i] >= toNs })
	dst.reset(s.Name)
	dst.grow(hi - lo)
	dst.ts = append(dst.ts, s.ts[lo:hi]...)
	dst.vs = append(dst.vs, s.vs[lo:hi]...)
	return dst
}

// Mean returns the mean value of the series, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vs {
		sum += v
	}
	return sum / float64(len(s.vs))
}

// sortedValues returns the series values sorted ascending, (re)building
// the cached scratch buffer only when Append has invalidated it. The
// returned slice is owned by the series and must not be modified.
func (s *Series) sortedValues() []float64 {
	if !s.valsOK {
		if cap(s.valsSorted) < len(s.vs) {
			s.valsSorted = make([]float64, len(s.vs))
		}
		s.valsSorted = s.valsSorted[:len(s.vs)]
		copy(s.valsSorted, s.vs)
		sort.Float64s(s.valsSorted)
		s.valsOK = true
	}
	return s.valsSorted
}

// Median returns the median value of the series, or 0 if empty.
func (s *Series) Median() float64 {
	if len(s.vs) == 0 {
		return 0
	}
	vs := s.sortedValues()
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// Scale returns a new series with every value multiplied by f.
func (s *Series) Scale(f float64) *Series {
	s.ensureSorted()
	out := NewWithCap(s.Name, len(s.ts))
	out.ts = append(out.ts, s.ts...)
	for _, v := range s.vs {
		out.vs = append(out.vs, v*f)
	}
	return out
}

// Shift returns a new series with the constant delta added to every value.
// It is used to offset model predictions to measurement level (Fig. 9).
func (s *Series) Shift(delta float64) *Series {
	s.ensureSorted()
	out := NewWithCap(s.Name, len(s.ts))
	out.ts = append(out.ts, s.ts...)
	for _, v := range s.vs {
		out.vs = append(out.vs, v+delta)
	}
	return out
}

// Aggregator combines the samples that fall into one resampling bucket.
type Aggregator func(vs []float64) float64

// AggMean averages the bucket samples.
func AggMean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Resample buckets the series into windows of the given step, aggregating
// each bucket with agg. The resulting points are stamped at bucket starts
// (truncated to the step). Empty buckets produce no point. A non-positive
// step is an error.
func (s *Series) Resample(step time.Duration, agg Aggregator) (*Series, error) {
	return s.ResampleInto(step, agg, New(s.Name))
}

// ResampleInto is Resample writing into dst instead of allocating a new
// series: dst is reset (keeping its backing capacity) and filled with
// the aggregated buckets. It returns dst. dst must not alias s. A small
// per-call bucket buffer is still allocated; the column arrays — the
// bulk of a resample's footprint — are reused.
func (s *Series) ResampleInto(step time.Duration, agg Aggregator, dst *Series) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive resample step %v", step)
	}
	s.ensureSorted()
	out := dst
	out.reset(s.Name)
	var bucket []float64
	var bucketStart int64
	flush := func() {
		if len(bucket) > 0 {
			out.appendNano(bucketStart, agg(bucket))
			bucket = bucket[:0]
		}
	}
	for i, ns := range s.ts {
		bs := time.Unix(0, ns).Truncate(step).UnixNano()
		if len(bucket) > 0 && bs != bucketStart {
			flush()
		}
		bucketStart = bs
		bucket = append(bucket, s.vs[i])
	}
	flush()
	return out, nil
}

// Smooth returns a centered moving average over the given time window: the
// value at each point becomes the mean of all samples within ±window/2.
// This is the 30-minute smoothing applied to the Fig. 4 traces. The
// implementation is a single O(n) sliding-window pass — a running sum
// advanced by two monotone cursors — over the columnar arrays, with the
// output preallocated to the input length.
func (s *Series) Smooth(window time.Duration) *Series {
	return s.SmoothInto(window, New(s.Name))
}

// SmoothInto is Smooth writing into dst instead of allocating: dst is
// reset (keeping its backing capacity) and filled with the smoothed
// points. It returns dst. dst must not alias s — the sliding window
// re-reads input values both behind and ahead of the write cursor, so
// an in-place smooth would consume its own output. The values are
// bit-identical to Smooth's: same running sum, same division.
func (s *Series) SmoothInto(window time.Duration, dst *Series) *Series {
	s.ensureSorted()
	n := len(s.ts)
	dst.reset(s.Name)
	dst.grow(n)
	dst.ts = append(dst.ts, s.ts...)
	dst.vs = dst.vs[:n]
	if window <= 0 {
		copy(dst.vs, s.vs)
		return dst
	}
	half := int64(window / 2)
	lo, hi := 0, 0
	var sum float64
	for i, ns := range s.ts {
		from := ns - half
		to := ns + half
		for hi < n && s.ts[hi] <= to {
			sum += s.vs[hi]
			hi++
		}
		for lo < n && s.ts[lo] < from {
			sum -= s.vs[lo]
			lo++
		}
		dst.vs[i] = sum / float64(hi-lo)
	}
	return dst
}

// ErrNoOverlap is returned by alignment operations when the inputs share no
// common time range.
var ErrNoOverlap = errors.New("timeseries: series do not overlap in time")

// SumAligned sums multiple series after resampling each onto the common
// step (mean-aggregated). Buckets missing from any series carry that
// series' nearest earlier value (sample-and-hold), so that devices that
// report at slightly different instants still sum correctly; series
// contribute nothing before their first sample and hold their last value to
// the end. The result spans the union of the input ranges. It returns an
// error when called with no series or a non-positive step.
func SumAligned(name string, step time.Duration, series ...*Series) (*Series, error) {
	if len(series) == 0 {
		return nil, errors.New("timeseries: SumAligned requires at least one series")
	}
	if step <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive step %v", step)
	}
	type resampled struct {
		ts  []int64
		vs  []float64
		idx int
	}
	rs := make([]resampled, 0, len(series))
	var start, end int64
	first := true
	for _, s := range series {
		r, err := s.Resample(step, AggMean)
		if err != nil {
			return nil, err
		}
		if r.Len() == 0 {
			continue
		}
		if first {
			start, end = r.ts[0], r.ts[len(r.ts)-1]
			first = false
		} else {
			if r.ts[0] < start {
				start = r.ts[0]
			}
			if r.ts[len(r.ts)-1] > end {
				end = r.ts[len(r.ts)-1]
			}
		}
		rs = append(rs, resampled{ts: r.ts, vs: r.vs})
	}
	out := New(name)
	if first { // every series was empty
		return out, nil
	}
	stepNs := int64(step)
	if stepNs > 0 {
		out.ts = make([]int64, 0, (end-start)/stepNs+1)
		out.vs = make([]float64, 0, (end-start)/stepNs+1)
	}
	for t := start; t <= end; t += stepNs {
		var sum float64
		for i := range rs {
			r := &rs[i]
			for r.idx+1 < len(r.ts) && r.ts[r.idx+1] <= t {
				r.idx++
			}
			if r.ts[r.idx] > t {
				continue // before this series' first sample
			}
			sum += r.vs[r.idx]
		}
		out.appendNano(t, sum)
	}
	return out, nil
}

// SubInto returns a-b on a's timestamps, matching each point of a with
// the nearest-earlier point of b (sample-and-hold); points of a before
// b's first sample are dropped, and it returns ErrNoOverlap when nothing
// matches. The differences are written into dst, which is reset (keeping
// its backing capacity) and returned; dst must alias neither input.
func SubInto(a, b, dst *Series) (*Series, error) {
	a.ensureSorted()
	b.ensureSorted()
	if len(b.ts) == 0 {
		return nil, ErrNoOverlap
	}
	out := dst
	out.reset(a.Name + "-" + b.Name)
	out.grow(len(a.ts))
	j := 0
	for i, ns := range a.ts {
		for j+1 < len(b.ts) && b.ts[j+1] <= ns {
			j++
		}
		if b.ts[j] > ns {
			continue
		}
		out.appendNano(ns, a.vs[i]-b.vs[j])
	}
	if out.Len() == 0 {
		return nil, ErrNoOverlap
	}
	return out, nil
}

// IntegratePower integrates a power series (values in watts) over time by
// the trapezoid rule and returns joules. Series with fewer than two points
// integrate to zero.
func IntegratePower(s *Series) float64 {
	s.ensureSorted()
	var joules float64
	for i := 1; i < len(s.ts); i++ {
		dt := time.Duration(s.ts[i] - s.ts[i-1]).Seconds()
		if dt <= 0 {
			continue
		}
		joules += (s.vs[i] + s.vs[i-1]) / 2 * dt
	}
	return joules
}

// CounterToRate converts a monotonically increasing counter series (e.g.
// SNMP ifHCInOctets) into a per-second rate series. Each output point is
// stamped at the end of its interval. Counter wraps are handled for the
// given bit width (32 or 64); any other width is an error. Counter resets
// (decreases too large to be a wrap, i.e. more than half the counter range)
// produce no output point for that interval.
func CounterToRate(s *Series, bits int) (*Series, error) {
	if bits != 32 && bits != 64 {
		return nil, fmt.Errorf("timeseries: unsupported counter width %d", bits)
	}
	s.ensureSorted()
	out := NewWithCap(s.Name+".rate", s.Len())
	var modulus float64
	if bits == 32 {
		modulus = math.Pow(2, 32)
	} else {
		modulus = math.Pow(2, 64)
	}
	for i := 1; i < len(s.ts); i++ {
		dt := time.Duration(s.ts[i] - s.ts[i-1]).Seconds()
		if dt <= 0 {
			continue
		}
		dv := s.vs[i] - s.vs[i-1]
		if dv < 0 {
			wrapped := dv + modulus
			if wrapped > modulus/2 {
				// Too large to be a plausible wrap: treat as reset.
				continue
			}
			dv = wrapped
		}
		out.appendNano(s.ts[i], dv/dt)
	}
	return out, nil
}
