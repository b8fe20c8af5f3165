package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

func mk(name string, vals ...float64) *Series {
	s := New(name)
	for i, v := range vals {
		s.Append(t0.Add(time.Duration(i)*time.Minute), v)
	}
	return s
}

func TestAppendOutOfOrder(t *testing.T) {
	s := New("x")
	s.Append(t0.Add(2*time.Minute), 3)
	s.Append(t0, 1)
	s.Append(t0.Add(time.Minute), 2)
	vs := s.Values()
	for i, want := range []float64{1, 2, 3} {
		if vs[i] != want {
			t.Fatalf("Values() = %v, want sorted [1 2 3]", vs)
		}
	}
}

func TestFromPointsSorts(t *testing.T) {
	pts := []Point{{t0.Add(time.Hour), 2}, {t0, 1}}
	s := FromPoints("x", pts)
	if s.At(0).V != 1 || s.At(1).V != 2 {
		t.Errorf("FromPoints did not sort: %v", s.Points())
	}
	// Input must not be aliased.
	pts[0].V = 99
	if s.At(1).V == 99 {
		t.Error("FromPoints aliased its input")
	}
}

func TestBetween(t *testing.T) {
	s := mk("x", 1, 2, 3, 4, 5)
	got := s.Between(t0.Add(time.Minute), t0.Add(3*time.Minute))
	if got.Len() != 2 || got.At(0).V != 2 || got.At(1).V != 3 {
		t.Errorf("Between = %v", got.Points())
	}
	if s.Between(t0.Add(time.Hour), t0.Add(2*time.Hour)).Len() != 0 {
		t.Error("Between outside range must be empty")
	}
}

func TestSummaryStats(t *testing.T) {
	s := mk("x", 4, 1, 3, 2)
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Median() != 2.5 {
		t.Errorf("Median = %v", s.Median())
	}
	empty := New("e")
	if empty.Mean() != 0 || empty.Median() != 0 {
		t.Error("empty series stats must be 0")
	}
}

func TestScaleShift(t *testing.T) {
	s := mk("x", 1, 2)
	sc := s.Scale(10)
	if sc.At(0).V != 10 || sc.At(1).V != 20 {
		t.Errorf("Scale = %v", sc.Points())
	}
	sh := s.Shift(-1)
	if sh.At(0).V != 0 || sh.At(1).V != 1 {
		t.Errorf("Shift = %v", sh.Points())
	}
	if s.At(0).V != 1 {
		t.Error("Scale/Shift must not modify the receiver")
	}
}

func TestResample(t *testing.T) {
	s := New("x")
	// Two samples in minute 0, one in minute 2; minute 1 empty.
	s.Append(t0.Add(10*time.Second), 1)
	s.Append(t0.Add(50*time.Second), 3)
	s.Append(t0.Add(2*time.Minute+5*time.Second), 10)
	r, err := s.Resample(time.Minute, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Resample len = %d, want 2 (empty buckets skipped)", r.Len())
	}
	if r.At(0).V != 2 || !r.At(0).T.Equal(t0) {
		t.Errorf("bucket 0 = %v", r.At(0))
	}
	if r.At(1).V != 10 || !r.At(1).T.Equal(t0.Add(2*time.Minute)) {
		t.Errorf("bucket 1 = %v", r.At(1))
	}
	if _, err := s.Resample(0, AggMean); err == nil {
		t.Error("zero step must error")
	}
}

func TestAggregators(t *testing.T) {
	vs := []float64{1, 5, 3}
	if AggMean(vs) != 3 {
		t.Error("AggMean")
	}
}

func TestSmoothConstantInvariant(t *testing.T) {
	f := func(v float64, n uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		v = math.Mod(v, 1e9)
		s := New("c")
		for i := 0; i < int(n)+1; i++ {
			s.Append(t0.Add(time.Duration(i)*time.Second), v)
		}
		sm := s.Smooth(10 * time.Second)
		for _, p := range sm.Points() {
			if math.Abs(p.V-v) > 1e-9*math.Max(1, math.Abs(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSmoothAverages(t *testing.T) {
	s := mk("x", 0, 10, 0, 10, 0)
	sm := s.Smooth(2 * time.Minute)
	// Point at minute 2 averages minutes 1..3: (10+0+10)/3.
	want := 20.0 / 3
	if math.Abs(sm.At(2).V-want) > 1e-12 {
		t.Errorf("Smooth center = %v, want %v", sm.At(2).V, want)
	}
	// Zero window returns values unchanged.
	z := s.Smooth(0)
	for i := range s.Points() {
		if z.At(i).V != s.At(i).V {
			t.Error("zero-window smooth must be identity")
		}
	}
}

func TestSmoothReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New("noise")
	for i := 0; i < 1000; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Second), rng.NormFloat64())
	}
	sm := s.Smooth(60 * time.Second)
	varOf := func(x *Series) float64 {
		m := x.Mean()
		var ss float64
		for _, p := range x.Points() {
			d := p.V - m
			ss += d * d
		}
		return ss / float64(x.Len())
	}
	if varOf(sm) >= varOf(s)/5 {
		t.Errorf("smoothing should cut noise variance: raw %v smooth %v", varOf(s), varOf(sm))
	}
}

func TestSumAligned(t *testing.T) {
	a := mk("a", 1, 1, 1)
	b := mk("b", 2, 2, 2)
	sum, err := SumAligned("total", time.Minute, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Len() != 3 {
		t.Fatalf("len = %d", sum.Len())
	}
	for _, p := range sum.Points() {
		if p.V != 3 {
			t.Errorf("sum point = %v, want 3", p)
		}
	}
}

func TestSumAlignedSampleAndHold(t *testing.T) {
	// b starts one minute later and has a gap; its last value is held.
	a := mk("a", 1, 1, 1, 1)
	b := New("b")
	b.Append(t0.Add(time.Minute), 10)
	sum, err := SumAligned("total", time.Minute, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 11, 11, 11}
	for i, w := range want {
		if sum.At(i).V != w {
			t.Errorf("sum[%d] = %v, want %v", i, sum.At(i).V, w)
		}
	}
}

func TestSumAlignedErrors(t *testing.T) {
	if _, err := SumAligned("x", time.Minute); err == nil {
		t.Error("no series must error")
	}
	if _, err := SumAligned("x", 0, mk("a", 1)); err == nil {
		t.Error("zero step must error")
	}
	empty, err := SumAligned("x", time.Minute, New("e"))
	if err != nil || empty.Len() != 0 {
		t.Errorf("sum of empty series = %v, %v", empty, err)
	}
}

func TestSub(t *testing.T) {
	a := mk("a", 10, 20, 30)
	b := mk("b", 1, 2, 3)
	d, err := SubInto(a, b, New(""))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{9, 18, 27}
	for i, w := range want {
		if d.At(i).V != w {
			t.Errorf("diff[%d] = %v, want %v", i, d.At(i).V, w)
		}
	}
}

func TestSubNoOverlap(t *testing.T) {
	a := mk("a", 1)
	b := New("b")
	b.Append(t0.Add(time.Hour), 5)
	if _, err := SubInto(a, b, New("")); err != ErrNoOverlap {
		t.Errorf("err = %v, want ErrNoOverlap", err)
	}
	if _, err := SubInto(a, New("empty"), New("")); err != ErrNoOverlap {
		t.Errorf("err = %v, want ErrNoOverlap for empty b", err)
	}
}

func TestCounterToRate(t *testing.T) {
	s := New("octets")
	s.Append(t0, 1000)
	s.Append(t0.Add(10*time.Second), 2000) // 100/s
	s.Append(t0.Add(20*time.Second), 2000) // 0/s
	r, err := CounterToRate(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.At(0).V != 100 || r.At(1).V != 0 {
		t.Errorf("rates = %v", r.Points())
	}
}

func TestCounterToRateWrap32(t *testing.T) {
	max32 := math.Pow(2, 32)
	s := New("c")
	s.Append(t0, max32-500)
	s.Append(t0.Add(time.Second), 500) // wrapped: delta 1000
	r, err := CounterToRate(s, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.At(0).V != 1000 {
		t.Errorf("wrap rate = %v", r.Points())
	}
}

func TestCounterToRateReset(t *testing.T) {
	s := New("c")
	s.Append(t0, 1e9)
	s.Append(t0.Add(time.Second), 10) // reset, not a plausible 64-bit wrap
	s.Append(t0.Add(2*time.Second), 20)
	r, err := CounterToRate(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.At(0).V != 10 {
		t.Errorf("after reset = %v", r.Points())
	}
}

func TestCounterToRateBadWidth(t *testing.T) {
	if _, err := CounterToRate(New("c"), 16); err == nil {
		t.Error("width 16 must error")
	}
}

func TestCounterToRateNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New("c")
		c := uint32(rng.Uint64())
		for i := 0; i < 50; i++ {
			s.Append(t0.Add(time.Duration(i)*time.Second), float64(c))
			c += uint32(rng.Intn(1_000_000))
		}
		r, err := CounterToRate(s, 32)
		if err != nil {
			return false
		}
		for _, p := range r.Points() {
			if p.V < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntegratePower(t *testing.T) {
	s := New("p")
	// Constant 100 W for one hour = 100 Wh = 360 kJ.
	for i := 0; i <= 60; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Minute), 100)
	}
	got := IntegratePower(s)
	if math.Abs(got-360000) > 1e-6 {
		t.Errorf("IntegratePower = %v J, want 360000", got)
	}
	// A ramp 0→100 W over one hour averages 50 W.
	r := New("ramp")
	for i := 0; i <= 60; i++ {
		r.Append(t0.Add(time.Duration(i)*time.Minute), float64(i)/60*100)
	}
	if got := IntegratePower(r); math.Abs(got-180000) > 1e-6 {
		t.Errorf("ramp energy = %v J, want 180000", got)
	}
	if IntegratePower(New("empty")) != 0 {
		t.Error("empty series must integrate to 0")
	}
	one := New("one")
	one.Append(t0, 500)
	if IntegratePower(one) != 0 {
		t.Error("single point must integrate to 0")
	}
}

func TestIntegratePowerNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New("p")
		for i := 0; i < 50; i++ {
			s.Append(t0.Add(time.Duration(i)*time.Minute), rng.Float64()*1000)
		}
		return IntegratePower(s) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianCacheInvalidatedByAppend(t *testing.T) {
	s := mk("med", 1, 3, 2)
	if got := s.Median(); got != 2 {
		t.Fatalf("Median = %v, want 2", got)
	}
	// A later Append must invalidate the cached sorted values.
	s.Append(t0.Add(time.Hour), 100)
	if got := s.Median(); got != 2.5 {
		t.Fatalf("Median after Append = %v, want 2.5", got)
	}
	s.Append(t0.Add(2*time.Hour), 200)
	if got := s.Median(); got != 3 {
		t.Fatalf("Median after second Append = %v, want 3", got)
	}
}

func TestMedianDoesNotReorderPoints(t *testing.T) {
	s := mk("order", 5, 1, 9)
	_ = s.Median()
	want := []float64{5, 1, 9}
	for i, p := range s.Points() {
		if p.V != want[i] {
			t.Fatalf("point %d = %v, want %v (Median must not disturb time order)", i, p.V, want[i])
		}
	}
}

// quantile is the q-quantile (0 ≤ q ≤ 1) of the series values by linear
// interpolation between order statistics — the estimator of
// stats.Quantile — or 0 for an empty series. It reads the value-sorted
// cache Median uses, and is the oracle Median is checked against.
func quantile(s *Series, q float64) float64 {
	n := len(s.vs)
	if n == 0 {
		return 0
	}
	vs := s.sortedValues()
	if q <= 0 {
		return vs[0]
	}
	if q >= 1 {
		return vs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return vs[lo]
	}
	frac := pos - float64(lo)
	return vs[lo]*(1-frac) + vs[hi]*frac
}

func TestQuantile(t *testing.T) {
	s := mk("q", 5, 1, 3, 2, 4)
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(New("empty"), 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// The 0.5-quantile and the median agree, through the shared cache.
	if quantile(s, 0.5) != s.Median() {
		t.Error("quantile(0.5) != Median()")
	}
}

// TestFromColumns checks the adopting constructor: it shares the caller's
// columns rather than copying them, reads back exactly what it was given,
// fixes an out-of-order column up lazily, and rejects mismatched lengths.
func TestFromColumns(t *testing.T) {
	ts := []int64{10, 20, 30}
	vs := []float64{1, 2, 3}
	s := FromColumns("adopted", ts, vs)
	if s.Len() != 3 || s.NanoAt(2) != 30 || s.Value(1) != 2 {
		t.Fatalf("adopted series reads %v", s.Points())
	}
	vs[0] = 7
	if s.Value(0) != 7 {
		t.Fatal("FromColumns copied the value column instead of adopting it")
	}

	u := FromColumns("unsorted", []int64{30, 10, 20}, []float64{3, 1, 2})
	for i, want := range []float64{1, 2, 3} {
		if u.Value(i) != want || u.NanoAt(i) != int64(10*(i+1)) {
			t.Fatalf("unsorted columns not fixed up: point %d = %v", i, u.At(i))
		}
	}

	if FromColumns("empty", nil, nil).Len() != 0 {
		t.Fatal("empty columns must give an empty series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched column lengths must panic")
		}
	}()
	FromColumns("bad", []int64{1, 2}, []float64{1})
}
