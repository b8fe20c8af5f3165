package ispnet

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"fantasticjoules/internal/trafficgen"
)

// TestNoisePrefixMatchesHash64 checks the split noise hash against the
// reference: for every physical port of every router of the calibrated
// build — the deployed interfaces and every free port OpAddInterfaces
// could bring up — noiseAt(noisePrefix(router, iface), unix) equals
// hash64(router, iface, unix) at random unix times.
func TestNoisePrefixMatchesHash64(t *testing.T) {
	n, err := Build(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, r := range n.Routers {
		for _, name := range n.specs[r.Model].PortNames() {
			prefix := noisePrefix(r.Name, name)
			for k := 0; k < 4; k++ {
				unix := rng.Int63() - rng.Int63()
				if k == 0 {
					unix = n.Config.Start.Unix() + rng.Int63n(int64(n.Config.Duration/time.Second))
				}
				if got, want := noiseAt(prefix, unix), hash64(r.Name, name, unix); got != want {
					t.Fatalf("%s/%s at %d: prefix+fold %#x, hash64 %#x", r.Name, name, unix, got, want)
				}
				checked++
			}
		}
	}
	if checked < 4*2000 {
		t.Fatalf("checked only %d (interface, time) pairs", checked)
	}
}

// TestPlanNoisePrefixes checks what buildPlan stores: after a replay
// whose events added interfaces, every plan entry of the calibrated
// fleet carries its interface's noise prefix (added names included),
// and the hierarchical fleet's plans carry none.
func TestPlanNoisePrefixes(t *testing.T) {
	f, err := NewFleet(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	idx, name := -1, ""
	for i, r := range f.Network().Routers {
		if r.Model == "8201-32FH" {
			idx, name = i, r.Name
			break
		}
	}
	if idx < 0 {
		t.Fatal("no 8201-32FH in the calibrated build")
	}
	before := len(f.Network().Routers[idx].Interfaces)
	if err := f.Perturb(FleetEvent{At: f.cfg.Start.Add(time.Hour), Router: name, Op: OpAddInterfaces, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Resimulate(); err != nil {
		t.Fatal(err)
	}
	sh := f.shards[idx]
	if len(sh.plan) != before+2 {
		t.Fatalf("plan has %d entries after adding 2 to %d", len(sh.plan), before)
	}
	for _, p := range sh.plan {
		if want := noisePrefix(name, p.itf.Name); p.noise != want {
			t.Fatalf("%s/%s: plan prefix %#x, want %#x", name, p.itf.Name, p.noise, want)
		}
	}

	hn, err := Build(hierFleetCfg(64, 1, 6*time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	jobs := hn.jobs(nil, nil)
	if err := (&player{workers: 1}).play(hn, hn.stepGrid(), jobs[:8], func(_ int, sh *routerShard) (bool, error) {
		for _, p := range sh.plan {
			if p.noise != 0 {
				t.Fatalf("hierarchical %s/%s stores a noise prefix", sh.router.Name, p.itf.Name)
			}
		}
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStepGridColumns checks the grid against per-step evaluation: the
// times walk Start by SNMPStep, the nano and unix columns match each
// time, and exactly the fleet's own multiplier column is populated and
// equals Diurnal.Multiplier (calibrated, 107 routers) or
// CohortMultipliers (hierarchical, 1k routers) at every step, bit for
// bit.
func TestStepGridColumns(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 42},
		{Seed: 42, Routers: 1000, Duration: 9 * 24 * time.Hour, SNMPStep: 10 * time.Minute},
	} {
		n, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := n.stepGrid()
		want := int(n.Config.Duration / n.Config.SNMPStep)
		if len(g.times) != want || len(g.nanos) != want || len(g.unix) != want {
			t.Fatalf("routers=%d: grid lengths %d/%d/%d, want %d", len(n.Routers), len(g.times), len(g.nanos), len(g.unix), want)
		}
		if n.hier {
			if g.mult != nil || len(g.cohort) != want {
				t.Fatalf("hierarchical grid: %d diurnal, %d cohort steps", len(g.mult), len(g.cohort))
			}
		} else if g.cohort != nil || len(g.mult) != want {
			t.Fatalf("calibrated grid: %d diurnal, %d cohort steps", len(g.mult), len(g.cohort))
		}
		for si, tm := range g.times {
			if exp := n.Config.Start.Add(time.Duration(si) * n.Config.SNMPStep); !tm.Equal(exp) {
				t.Fatalf("step %d at %v, want %v", si, tm, exp)
			}
			if g.nanos[si] != tm.UnixNano() || g.unix[si] != tm.Unix() {
				t.Fatalf("step %d: nanos %d unix %d for %v", si, g.nanos[si], g.unix[si], tm)
			}
			if n.hier {
				var cm [trafficgen.NumCohorts]float64
				trafficgen.CohortMultipliers(tm, &cm)
				for c := range cm {
					if math.Float64bits(g.cohort[si][c]) != math.Float64bits(cm[c]) {
						t.Fatalf("step %d cohort %d: grid %v, want %v", si, c, g.cohort[si][c], cm[c])
					}
				}
			} else if m := n.diurnal.Multiplier(tm, nil); math.Float64bits(g.mult[si]) != math.Float64bits(m) {
				t.Fatalf("step %d: grid multiplier %v, want %v", si, g.mult[si], m)
			}
		}
	}
}

// TestGridLoadsMatchLoadAt checks that the replay's load evaluation —
// grid multipliers plus noise prefixes — gives LoadAt's value bit for
// bit on both fleet kinds.
func TestGridLoadsMatchLoadAt(t *testing.T) {
	for _, cfg := range []Config{quickCfg(), hierFleetCfg(200, 1, 2*24*time.Hour, 30*time.Minute)} {
		n, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := n.stepGrid()
		checked := 0
		for ri, r := range n.Routers {
			if ri%5 != 0 {
				continue
			}
			for i := range r.Interfaces {
				itf := &r.Interfaces[i]
				prefix := noisePrefix(r.Name, itf.Name)
				for si := i % 7; si < len(g.times); si += 7 {
					var got float64
					if n.hier {
						got = hierLoad(itf, &g.cohort[si], g.unix[si]).BitsPerSecond()
					} else {
						got = calibratedLoad(itf, g.mult[si], noiseAt(prefix, g.unix[si])).BitsPerSecond()
					}
					want := n.LoadAt(itf, r, g.times[si]).BitsPerSecond()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s step %d: grid load %v, LoadAt %v", r.Name, itf.Name, si, got, want)
					}
					if want > 0 {
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("routers=%d: no loaded interface checked", len(n.Routers))
		}
	}
}

// wallStatsOracle is the reduction selectWallStats replaced: sort a copy
// with sort.Float64s, take the middle (the mean of the two middle
// samples for an even count) and the last sample.
func wallStatsOracle(samples []float64) (median, peak float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2, s[len(s)-1]
	}
	return s[mid], s[len(s)-1]
}

// sameOrderStatistic reports whether a selected value matches the
// oracle's bit for bit. The one allowed difference is the freedom the
// sort itself has: samples that compare equal but differ in bits — +0
// and −0, or NaNs — may land at a rank in either order.
func sameOrderStatistic(got, want float64) bool {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	return (got == 0 && want == 0) || (math.IsNaN(got) && math.IsNaN(want))
}

// FuzzWallStats compares selectWallStats with the sort oracle. The input
// bytes are read as little-endian float64 bit patterns, 8 per sample, so
// the corpus reaches every value — duplicates, zeros of both signs,
// infinities and NaNs included.
func FuzzWallStats(f *testing.F) {
	enc := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(412.5))                               // length 1
	f.Add(enc(700, 300))                            // length 2
	f.Add(enc(5, 1, 4, 2, 3))                       // odd
	f.Add(enc(6, 1, 5, 2, 4, 3))                    // even
	f.Add(enc(7, 7, 7, 7, 7, 7, 7))                 // all equal
	f.Add(enc(0, 0, 0, 0))                          // every PSU offline
	f.Add(enc(0, 250, 0, 250, 0, 250, 0, 250))      // duplicates and zeros
	f.Add(enc(math.Copysign(0, -1), 0, 1, -1))      // signed zeros
	f.Add(enc(math.Inf(1), 3, math.Inf(-1), 2, 1))  // infinities
	f.Add(enc(math.NaN(), 2, 1, math.NaN(), 3, 4))  // NaNs
	f.Add(enc(9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1, 5)) // descending
	f.Fuzz(func(t *testing.T, data []byte) {
		samples := make([]float64, len(data)/8)
		for i := range samples {
			samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		wantMedian, wantPeak := 0.0, 0.0
		if len(samples) > 0 {
			wantMedian, wantPeak = wallStatsOracle(samples)
		}
		got := selectWallStats(samples)
		if got.ok != (len(samples) > 0) {
			t.Fatalf("%d samples: ok = %v", len(samples), got.ok)
		}
		if !got.ok {
			return
		}
		if !sameOrderStatistic(got.median, wantMedian) {
			t.Fatalf("median %v (%#x), oracle %v (%#x) over %v", got.median, math.Float64bits(got.median), wantMedian, math.Float64bits(wantMedian), samples)
		}
		if !sameOrderStatistic(got.peak, wantPeak) {
			t.Fatalf("peak %v (%#x), oracle %v (%#x) over %v", got.peak, math.Float64bits(got.peak), wantPeak, math.Float64bits(wantPeak), samples)
		}
	})
}

// TestWallStatsMatchesSort runs the selection over shapes a fuzz corpus
// rarely reaches, against the sort oracle: 20,000 short random inputs
// drawn from few distinct values (where the partition bounds matter
// most), then full-window lengths of random samples, long runs of
// duplicates, sorted and reverse-sorted inputs (the classic quickselect
// worst cases) and an organ-pipe sequence — checking each result and
// that each input stays a permutation of itself.
func TestWallStatsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for it := 0; it < 20000; it++ {
		n := 1 + rng.Intn(40)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(rng.Intn(n))
		}
		wantMedian, wantPeak := wallStatsOracle(samples)
		if got := selectWallStats(samples); got.median != wantMedian || got.peak != wantPeak {
			t.Fatalf("input %d (n=%d): median %v peak %v, oracle %v %v", it, n, got.median, got.peak, wantMedian, wantPeak)
		}
	}
	for _, g := range []struct {
		name string
		mk   func(n int) []float64
	}{
		{"random", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = 1000 + rng.NormFloat64()*40
			}
			return s
		}},
		{"few-values", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(rng.Intn(3)) * 250
			}
			return s
		}},
		{"ascending", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(i)
			}
			return s
		}},
		{"descending", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(n - i)
			}
			return s
		}},
		{"organ-pipe", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(min(i, n-1-i))
			}
			return s
		}},
	} {
		name := g.name
		for _, n := range []int{1, 2, 3, 4, 1001, 6048, 18144} {
			samples := g.mk(n)
			wantMedian, wantPeak := wallStatsOracle(samples)
			before := append([]float64(nil), samples...)
			sort.Float64s(before)
			got := selectWallStats(samples)
			if math.Float64bits(got.median) != math.Float64bits(wantMedian) || math.Float64bits(got.peak) != math.Float64bits(wantPeak) {
				t.Fatalf("%s n=%d: got median %v peak %v, oracle %v %v", name, n, got.median, got.peak, wantMedian, wantPeak)
			}
			sort.Float64s(samples)
			for i := range samples {
				if samples[i] != before[i] {
					t.Fatalf("%s n=%d: selection is not a permutation of its input", name, n)
				}
			}
		}
	}
}
