package ispnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fantasticjoules/internal/timeseries"
)

// memSink retains every spilled chunk decoded back into series, keyed by
// router then series name — the test double proving the spill stream
// reconstructs full-resolution traces.
type memSink struct {
	series map[string]map[string]*timeseries.Series
	chunks int
}

func (m *memSink) WriteChunk(router, series string, chunk []byte) error {
	if m.series == nil {
		m.series = make(map[string]map[string]*timeseries.Series)
	}
	byName := m.series[router]
	if byName == nil {
		byName = make(map[string]*timeseries.Series)
		m.series[router] = byName
	}
	s := byName[series]
	if s == nil {
		s = timeseries.New(router + "." + series)
		byName[series] = s
	}
	rest, err := timeseries.DecodeChunk(s, chunk)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("chunk for %s/%s carries %d trailing bytes", router, series, len(rest))
	}
	m.chunks++
	return nil
}

// TestStreamMatchesSimulate107 is the golden equivalence: the streaming
// fold over the calibrated 107-router fleet must produce a Dataset
// bit-identical to the retained-memory Simulate under the DiffDatasets
// Float64bits oracle — aggregates, wall statistics, instrumented traces,
// PSU snapshots, events, everything.
func TestStreamMatchesSimulate107(t *testing.T) {
	cold, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	streamed, err := SimulateStream(quickCfg(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffDatasets(cold, streamed); err != nil {
		t.Fatalf("streamed dataset differs from cold Simulate: %v", err)
	}
	if sink.chunks == 0 {
		t.Fatal("no chunks spilled")
	}

	// The spilled per-router power series must re-sum, step for step, to
	// the published network total — the identical addition order makes
	// this exact, not approximate.
	steps := cold.TotalPower.Len()
	names := make([]string, 0, len(streamed.Network.Routers))
	for _, r := range streamed.Network.Routers {
		names = append(names, r.Name)
		got := sink.series[r.Name]["power"]
		if got == nil || got.Len() != steps {
			t.Fatalf("router %s spilled %v power points, want %d", r.Name, got.Len(), steps)
		}
	}
	for si := 0; si < steps; si++ {
		var sum float64
		for _, name := range names {
			sum += sink.series[name]["power"].Value(si)
		}
		if sum != cold.TotalPower.Value(si) {
			t.Fatalf("step %d: spilled per-router sum %v != total %v", si, sum, cold.TotalPower.Value(si))
		}
	}

	// Instrumented traces spill too, and round-trip exactly.
	for name, want := range cold.Autopower {
		got := sink.series[name][name+".autopower"]
		if got == nil || got.Len() != want.Len() {
			t.Fatalf("autopower spill for %s missing or short", name)
		}
	}
}

// TestStreamMatchesSimulateHierarchy extends the golden equivalence to a
// generated fleet: same seed, same size ⇒ the streaming and retained
// paths agree bit for bit.
func TestStreamMatchesSimulateHierarchy(t *testing.T) {
	cfg := Config{
		Seed:          7,
		Routers:       240,
		Duration:      2 * 24 * time.Hour,
		SNMPStep:      time.Hour,
		AutopowerStep: 30 * time.Minute,
	}
	cold, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sink DiscardSink
	streamed, err := SimulateStream(cfg, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffDatasets(cold, streamed); err != nil {
		t.Fatalf("hierarchical streamed dataset differs: %v", err)
	}
	if sink.Points == 0 || sink.Bytes == 0 {
		t.Fatalf("discard sink saw nothing: %+v", sink)
	}
}

// TestStreamWorkerCounts pins bit-identical output across worker counts
// on the streaming path, as determinism_test.go does for Run.
func TestStreamWorkerCounts(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 1
	var s1 DiscardSink
	serial, err := SimulateStream(cfg, &s1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	var s8 DiscardSink
	parallel, err := SimulateStream(cfg, &s8)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffDatasets(serial, parallel); err != nil {
		t.Fatalf("streaming workers=1 vs workers=8 differ: %v", err)
	}
	if s1.Chunks != s8.Chunks || s1.Bytes != s8.Bytes || s1.Points != s8.Points {
		t.Fatalf("spill volume depends on worker count: %+v vs %+v", s1, s8)
	}
}

// TestStreamScaleSmoke1k streams a 1k-router fleet through a full week —
// the CI scale-smoke job runs exactly this test under -race with a
// wall-clock timeout.
func TestStreamScaleSmoke1k(t *testing.T) {
	cfg := Config{
		Seed:          42,
		Routers:       1000,
		Duration:      7 * 24 * time.Hour,
		SNMPStep:      time.Hour,
		AutopowerStep: time.Hour,
	}
	var sink DiscardSink
	ds, err := SimulateStream(cfg, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalPower.Len() != 168 {
		t.Fatalf("got %d steps, want 168", ds.TotalPower.Len())
	}
	if ds.TotalPower.Value(0) <= 0 {
		t.Fatal("zero total power")
	}
	if subs := ds.Network.TotalSubscribers(); subs < 100_000 {
		t.Fatalf("1k-router fleet serves %d subscribers, want ≥ 100k", subs)
	}
	// 1000 routers × 2 series × 168 points.
	if want := int64(1000 * 2 * 168); sink.Points != want {
		t.Fatalf("spilled %d points, want %d", sink.Points, want)
	}
}

// TestStreamBounded10k is the acceptance run: a seeded 10k-router 9-week
// streaming simulation completes with peak heap bounded independent of
// the fleet-duration product. The naive retained layout would hold
// 10k routers × 504 steps × (2×8 B step columns + 8 B wall) ≈ 120 MB of
// sample buffers alone; the assertion pins the streaming path's heap
// growth over the run to a small fraction of that.
func TestStreamBounded10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-router 9-week run is not a -short test")
	}
	if raceEnabled {
		t.Skip("race shadow memory breaks the heap-budget assertion; CI covers -race at 1k")
	}
	cfg := Config{
		Seed:          42,
		Routers:       10000,
		Duration:      9 * 7 * 24 * time.Hour,
		SNMPStep:      3 * time.Hour,
		AutopowerStep: 3 * time.Hour,
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	peak := &peakSink{}
	ds, err := n.RunStream(peak)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.TotalPower.Len(); got != 504 {
		t.Fatalf("got %d steps, want 504", got)
	}

	// Peak heap during the run, minus the built fleet itself, must stay
	// far below the ~120 MB the retained layout would pin. The 64 MB
	// budget holds the bounded window plus allocator slack with margin,
	// and fails loudly if anyone reintroduces per-fleet sample retention.
	delta := int64(peak.peakHeap) - int64(before.HeapAlloc)
	t.Logf("fleet heap %d MB, peak during run +%d MB, %d chunks / %d MB spilled",
		before.HeapAlloc>>20, delta>>20, peak.Chunks, peak.Bytes>>20)
	if delta > 64<<20 {
		t.Fatalf("streaming run grew the heap by %d MB; want bounded (< 64 MB) regardless of fleet×duration", delta>>20)
	}
	if subs := ds.Network.TotalSubscribers(); subs < 1_000_000 {
		t.Fatalf("10k-router fleet serves %d subscribers, want millions", subs)
	}
}

// peakSink discards chunks while sampling the live heap, recording the
// peak it observes.
type peakSink struct {
	DiscardSink
	peakHeap uint64
	calls    int
}

func (p *peakSink) WriteChunk(router, series string, chunk []byte) error {
	p.calls++
	// ReadMemStats stops the world; sample sparsely.
	if p.calls%256 == 1 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > p.peakHeap {
			p.peakHeap = ms.HeapAlloc
		}
	}
	return p.DiscardSink.WriteChunk(router, series, chunk)
}

// TestStreamSinkError checks a failing sink aborts the run cleanly (no
// hang, no partial success), and that it aborts early: once the first
// chunk fails, the pipeline admits no further router, so a 1k-router
// fleet replays at most the admitted window plus the failing router.
func TestStreamSinkError(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 12 * time.Hour
	if _, err := SimulateStream(cfg, failSink{}); err == nil {
		t.Fatal("want the sink error to surface")
	}
	for _, workers := range []int{1, 4} {
		n, err := Build(hierFleetCfg(1000, workers, 6*time.Hour, time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		replayed0 := metricRouters.Value()
		if _, err := n.RunStream(failSink{}); err == nil {
			t.Fatal("want the sink error to surface")
		}
		if got, limit := metricRouters.Value()-replayed0, uint64(workers+streamWindowSlack+1); got > limit {
			t.Fatalf("workers=%d: a sink failing on the first chunk still replayed %d routers, want ≤ %d", workers, got, limit)
		}
	}
}

type failSink struct{}

func (failSink) WriteChunk(string, string, []byte) error {
	return fmt.Errorf("sink full")
}
