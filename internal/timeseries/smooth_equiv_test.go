package timeseries

import (
	"math/rand"
	"testing"
	"time"
)

// smoothReference is the pre-columnar Smooth implementation, operating on
// a []Point exactly as the original Series did: the same two-cursor
// running sum, the same time comparisons, the same division. The columnar
// Smooth must reproduce it bit for bit — same sums in the same order —
// so the equivalence tests below compare with ==, not a tolerance.
func smoothReference(pts []Point, window time.Duration) []Point {
	n := len(pts)
	out := make([]Point, n)
	if window <= 0 {
		copy(out, pts)
		return out
	}
	half := window / 2
	lo, hi := 0, 0
	var sum float64
	for i, p := range pts {
		from := p.T.Add(-half)
		to := p.T.Add(half)
		for hi < n && !pts[hi].T.After(to) {
			sum += pts[hi].V
			hi++
		}
		for lo < n && pts[lo].T.Before(from) {
			sum -= pts[lo].V
			lo++
		}
		out[i] = Point{T: p.T, V: sum / float64(hi-lo)}
	}
	return out
}

func TestSmoothMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	windows := []time.Duration{
		0, time.Second, 30 * time.Minute, 2 * time.Hour, 100 * 24 * time.Hour,
		7*time.Minute + 13*time.Second, // odd window: exercises the /2 truncation
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		s := New("rnd")
		tt := base
		for i := 0; i < n; i++ {
			// Irregular spacing, including duplicate timestamps.
			if rng.Float64() < 0.9 {
				tt = tt.Add(time.Duration(rng.Intn(3600)) * time.Second)
			}
			s.Append(tt, rng.NormFloat64()*100)
		}
		pts := s.Points()
		for _, w := range windows {
			want := smoothReference(pts, w)
			got := s.Smooth(w)
			if got.Len() != len(want) {
				t.Fatalf("trial %d window %v: length %d, want %d", trial, w, got.Len(), len(want))
			}
			for i, wp := range want {
				gp := got.At(i)
				if !gp.T.Equal(wp.T) || gp.V != wp.V {
					t.Fatalf("trial %d window %v point %d: got (%v, %v), want (%v, %v)",
						trial, w, i, gp.T, gp.V, wp.T, wp.V)
				}
			}
		}
	}
}

// TestSmoothIntoMatchesSmoothReused drives SmoothInto through one reused
// scratch destination across many random series and windows: every fill
// must be bit-identical to a fresh Smooth of the same input — leftover
// state from the previous, differently-sized fill must never leak.
func TestSmoothIntoMatchesSmoothReused(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	base := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	scratch := New("scratch")
	windows := []time.Duration{0, time.Minute, 30 * time.Minute, 3 * time.Hour}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		s := NewWithCap("rnd", n)
		tt := base
		for i := 0; i < n; i++ {
			tt = tt.Add(time.Duration(rng.Intn(1800)) * time.Second)
			s.Append(tt, rng.NormFloat64()*50)
		}
		for _, w := range windows {
			want := s.Smooth(w)
			got := s.SmoothInto(w, scratch)
			if got != scratch {
				t.Fatal("SmoothInto did not return its destination")
			}
			if got.Len() != want.Len() {
				t.Fatalf("trial %d window %v: len %d, want %d", trial, w, got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if got.NanoAt(i) != want.NanoAt(i) || got.Value(i) != want.Value(i) {
					t.Fatalf("trial %d window %v point %d: got (%d, %v), want (%d, %v)",
						trial, w, i, got.NanoAt(i), got.Value(i), want.NanoAt(i), want.Value(i))
				}
			}
		}
	}
}

// TestIntoVariantsMatchAllocatingReused checks BetweenInto, SubInto, and
// ResampleInto against their allocating counterparts through reused
// destinations, including order statistics on the refilled scratch (the
// value-sorted cache must be invalidated by the reset).
func TestIntoVariantsMatchAllocatingReused(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	base := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	dstA, dstB, dstC := New(""), New(""), New("")
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(200)
		a := NewWithCap("a", n)
		b := NewWithCap("b", n)
		tt := base
		for i := 0; i < n; i++ {
			tt = tt.Add(time.Duration(1+rng.Intn(900)) * time.Second)
			a.Append(tt, rng.NormFloat64()*10)
			b.Append(tt.Add(time.Duration(rng.Intn(60))*time.Second), rng.NormFloat64()*10)
		}
		from := base.Add(time.Duration(rng.Intn(3600)) * time.Second)
		to := from.Add(time.Duration(rng.Intn(48)) * time.Hour)

		want := a.Between(from, to)
		got := a.BetweenInto(from, to, dstA)
		assertSeriesEqual(t, "BetweenInto", got, want)

		wantSub, errW := SubInto(a, b, New(""))
		gotSub, errG := SubInto(a, b, dstB)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("SubInto error mismatch: %v vs %v", errG, errW)
		}
		if errW == nil {
			assertSeriesEqual(t, "SubInto", gotSub, wantSub)
			if gotSub.Median() != wantSub.Median() {
				t.Fatalf("median on reused destination: %v vs %v", gotSub.Median(), wantSub.Median())
			}
		}

		wantRs, err := a.Resample(17*time.Minute, AggMean)
		if err != nil {
			t.Fatal(err)
		}
		gotRs, err := a.ResampleInto(17*time.Minute, AggMean, dstC)
		if err != nil {
			t.Fatal(err)
		}
		assertSeriesEqual(t, "ResampleInto", gotRs, wantRs)
	}
}

func assertSeriesEqual(t *testing.T, label string, got, want *Series) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.NanoAt(i) != want.NanoAt(i) || got.Value(i) != want.Value(i) {
			t.Fatalf("%s point %d: got (%d, %v), want (%d, %v)",
				label, i, got.NanoAt(i), got.Value(i), want.NanoAt(i), want.Value(i))
		}
	}
}

// TestSmoothIntoZeroAllocSteadyState pins the point of the scratch
// variants: once the destination has grown to the input's size, repeated
// smooths allocate nothing.
func TestSmoothIntoZeroAllocSteadyState(t *testing.T) {
	base := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	s := NewWithCap("steady", 4096)
	for i := 0; i < 4096; i++ {
		s.Append(base.Add(time.Duration(i)*time.Minute), float64(i%97))
	}
	dst := New("scratch")
	s.SmoothInto(30*time.Minute, dst) // warm the destination
	allocs := testing.AllocsPerRun(20, func() {
		s.SmoothInto(30*time.Minute, dst)
	})
	if allocs != 0 {
		t.Fatalf("SmoothInto steady state allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSmoothUnsortedInputMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	s := New("shuffled")
	var pts []Point
	for i := 0; i < 200; i++ {
		p := Point{T: base.Add(time.Duration(rng.Intn(100000)) * time.Second), V: rng.Float64()}
		pts = append(pts, p)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	for _, p := range pts {
		s.Append(p.T, p.V)
	}
	want := smoothReference(s.Points(), time.Hour) // Points() sorts
	got := s.Smooth(time.Hour)
	for i, wp := range want {
		gp := got.At(i)
		if !gp.T.Equal(wp.T) || gp.V != wp.V {
			t.Fatalf("point %d: got (%v, %v), want (%v, %v)", i, gp.T, gp.V, wp.T, wp.V)
		}
	}
}
