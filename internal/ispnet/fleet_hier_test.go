package ispnet

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Chunk-retained fleet tests: the incremental Perturb/Resimulate contract
// extended to generated hierarchical fleets (1k and 10k routers). Every
// comparison runs through the DiffDatasets Float64bits oracle against a
// cold SimulateWithEvents of the same merged schedule — the same
// bit-identity the 107-router golden/property tests pin for the
// live-shard path.

// hierFleetCfg is a hierarchical fleet config sized for incremental
// tests: big enough to exercise the generated tiers, short enough that a
// cold reference replay stays cheap.
func hierFleetCfg(routers, workers int, d time.Duration, step time.Duration) Config {
	return Config{
		Seed:          42,
		Start:         time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC),
		Duration:      d,
		SNMPStep:      step,
		AutopowerStep: step,
		Routers:       routers,
		Workers:       workers,
	}
}

// hierPerturbation is a fixed schedule against generated names covering
// the optimizer's actuation ops (sleep/wake/PSU) plus a load scale and a
// strict admin toggle — the hierarchical twin of goldenPerturbation.
func hierPerturbation(n *Network, start time.Time) []FleetEvent {
	// a00000-r0 is the first access gateway, c00000-r0 the first core
	// gateway: both exist at every size ≥ hierMinRouters.
	gw := n.Routers[0]                    // core gateway (core is deployed first)
	access := n.Routers[len(n.Routers)-1] // last access member
	var iface string
	for _, itf := range access.Interfaces {
		if !itf.Spare {
			iface = itf.Name
			break
		}
	}
	var coreIface string
	for _, itf := range gw.Interfaces {
		if !itf.Spare && itf.PeerRouter != "" {
			coreIface = itf.Name
			break
		}
	}
	return []FleetEvent{
		{At: start.Add(2 * time.Hour), Router: access.Name, Op: OpSleep, Iface: iface},
		{At: start.Add(3 * time.Hour), Router: gw.Name, Op: OpScaleLoad, Factor: 1.2},
		{At: start.Add(4 * time.Hour), Router: gw.Name, Op: OpPSUOffline, PSU: 1},
		{At: start.Add(6 * time.Hour), Router: access.Name, Op: OpWake, Iface: iface},
		{At: start.Add(8 * time.Hour), Router: gw.Name, Op: OpSleep, Iface: coreIface},
		{At: start.Add(9 * time.Hour), Router: gw.Name, Op: OpPSUOnline, PSU: 1},
		{At: start.Add(10 * time.Hour), Router: gw.Name, Op: OpWake, Iface: coreIface},
	}
}

// TestFleetChunkedColdMatchesSimulate pins the chunk-retained initial
// replay: a hierarchical NewFleet's dataset is bit-identical to the cold
// Simulate of the same config, at serial and parallel worker counts.
func TestFleetChunkedColdMatchesSimulate(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := hierFleetCfg(1000, workers, 24*time.Hour, time.Hour)
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !f.ChunkRetained() {
			t.Fatal("hierarchical fleet should retain chunks, not live shards")
		}
		cold, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		datasetsIdentical(t, cold, f.Dataset())
	}
}

// TestFleetChunkedResimulateGolden is the hierarchical golden test:
// Perturb+Resimulate on a 1k-router chunk-retained fleet reproduces a
// cold SimulateWithEvents of the merged schedule bit for bit, at Workers
// 1 and 8, across two perturbation rounds (so retained chunks from round
// one splice into round two's fold).
func TestFleetChunkedResimulateGolden(t *testing.T) {
	cfg := hierFleetCfg(1000, 0, 24*time.Hour, time.Hour)
	var want []*Dataset
	for i, workers := range []int{1, 8} {
		cfg.Workers = workers
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		evs := hierPerturbation(f.Network(), cfg.Start)
		if err := f.Perturb(evs[:4]...); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Resimulate(); err != nil {
			t.Fatal(err)
		}
		if err := f.Perturb(evs[4:]...); err != nil {
			t.Fatal(err)
		}
		ds, err := f.Resimulate()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SimulateWithEvents(cfg, f.ExtraEvents())
		if err != nil {
			t.Fatal(err)
		}
		datasetsIdentical(t, cold, ds)
		want = append(want, ds)
		if i == 1 {
			// Worker-count independence of the incremental path itself.
			datasetsIdentical(t, want[0], want[1])
		}
	}
}

// TestFleetChunkedOps covers the optimizer actuation ops against
// generated interface and PSU names at 1k routers, including the
// best-effort no-op path: sleeping an interface the generated deployment
// lacks must change nothing, bit for bit.
func TestFleetChunkedOps(t *testing.T) {
	cfg := hierFleetCfg(1000, 8, 12*time.Hour, time.Hour)
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := f.Dataset()

	// Best-effort no-op: the generated deployment has no interface by
	// this name anywhere, so OpSleep/OpWake compile and replay to nothing.
	r := f.Network().Routers[42]
	if err := f.Perturb(
		FleetEvent{At: cfg.Start.Add(time.Hour), Router: r.Name, Op: OpSleep, Iface: "no-such-port-9/9"},
		FleetEvent{At: cfg.Start.Add(2 * time.Hour), Router: r.Name, Op: OpWake, Iface: "no-such-port-9/9"},
	); err != nil {
		t.Fatal(err)
	}
	ds, err := f.Resimulate()
	if err != nil {
		t.Fatal(err)
	}
	// The no-op actuation lands in the event log but must leave every
	// measurement bit-identical; the cold reference pins the whole dataset.
	for si := 0; si < baseline.TotalPower.Len(); si++ {
		if baseline.TotalPower.Value(si) != ds.TotalPower.Value(si) {
			t.Fatalf("no-op sleep changed total power at step %d", si)
		}
	}
	cold0, err := SimulateWithEvents(cfg, f.ExtraEvents())
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, cold0, ds)

	// Real actuation: sleep a generated internal link endpoint and take a
	// PSU offline; both must change power and match the cold reference.
	var iface string
	for _, itf := range r.Interfaces {
		if !itf.Spare && itf.PeerRouter != "" {
			iface = itf.Name
			break
		}
	}
	if iface == "" {
		t.Fatalf("router %s has no internal link to actuate", r.Name)
	}
	if err := f.Perturb(
		FleetEvent{At: cfg.Start.Add(3 * time.Hour), Router: r.Name, Op: OpSleep, Iface: iface},
		FleetEvent{At: cfg.Start.Add(4 * time.Hour), Router: r.Name, Op: OpPSUOffline, PSU: 1},
	); err != nil {
		t.Fatal(err)
	}
	ds, err = f.Resimulate()
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalPower.Mean() >= baseline.TotalPower.Mean() {
		t.Fatal("sleeping a link and shedding a PSU should reduce mean fleet power")
	}
	cold, err := SimulateWithEvents(cfg, f.ExtraEvents())
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, cold, ds)
}

// randomHierEvents draws a random batch of declarative events against
// generated routers — sleeps/wakes of real (and sometimes absent)
// interfaces, PSU cycling, and load scaling.
func randomHierEvents(rng *rand.Rand, n *Network, start time.Time, d time.Duration) []FleetEvent {
	count := 2 + rng.Intn(4)
	evs := make([]FleetEvent, 0, count)
	for len(evs) < count {
		r := n.Routers[rng.Intn(len(n.Routers))]
		at := start.Add(time.Duration(rng.Int63n(int64(d))))
		switch rng.Intn(5) {
		case 0, 1:
			var ifaces []string
			for _, itf := range r.Interfaces {
				if !itf.Spare {
					ifaces = append(ifaces, itf.Name)
				}
			}
			if len(ifaces) == 0 {
				continue
			}
			name := ifaces[rng.Intn(len(ifaces))]
			op := OpSleep
			if rng.Intn(2) == 0 {
				op = OpWake
			}
			evs = append(evs, FleetEvent{At: at, Router: r.Name, Op: op, Iface: name})
		case 2:
			// Best-effort path against a name the deployment lacks.
			evs = append(evs, FleetEvent{At: at, Router: r.Name, Op: OpSleep, Iface: "absent-port"})
		case 3:
			evs = append(evs, FleetEvent{At: at, Router: r.Name, Op: OpScaleLoad, Factor: 0.5 + rng.Float64()})
		case 4:
			evs = append(evs, FleetEvent{At: at, Router: r.Name, Op: OpPSUOffline, PSU: 1})
			evs = append(evs, FleetEvent{At: at.Add(time.Hour), Router: r.Name, Op: OpPSUOnline, PSU: 1})
		}
	}
	return evs
}

// TestFleetChunkedResimulatePropertyRandom is the randomized form: seeded
// random perturbation rounds against a 1k-router chunk-retained fleet,
// each round's Resimulate compared bit-for-bit against a cold
// SimulateWithEvents of everything applied so far, at Workers 1 and 8.
func TestFleetChunkedResimulatePropertyRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized 1k-router rounds are not a -short test")
	}
	for _, workers := range []int{1, 8} {
		cfg := hierFleetCfg(1000, workers, 12*time.Hour, time.Hour)
		rng := rand.New(rand.NewSource(1234))
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			evs := randomHierEvents(rng, f.Network(), cfg.Start, cfg.Duration)
			if err := f.Perturb(evs...); err != nil {
				t.Fatal(err)
			}
			ds, err := f.Resimulate()
			if err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
			cold, err := SimulateWithEvents(cfg, f.ExtraEvents())
			if err != nil {
				t.Fatal(err)
			}
			datasetsIdentical(t, cold, ds)
		}
	}
}

// TestFleetChunkedResimulate10k extends the golden bit-identity to the
// 10k-router tier over a short window, Workers 1 and 8.
func TestFleetChunkedResimulate10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-router replay is not a -short test")
	}
	for _, workers := range []int{1, 8} {
		cfg := hierFleetCfg(10000, workers, 12*time.Hour, 2*time.Hour)
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		evs := hierPerturbation(f.Network(), cfg.Start)
		if err := f.Perturb(evs...); err != nil {
			t.Fatal(err)
		}
		ds, err := f.Resimulate()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SimulateWithEvents(cfg, f.ExtraEvents())
		if err != nil {
			t.Fatal(err)
		}
		datasetsIdentical(t, cold, ds)
	}
}

// TestFleetChunked10kHeapBudget is the bounded-memory acceptance run: a
// 10k-router 9-week NewFleet must retain its results within a fixed
// encoded-chunk budget over the cost of the built network itself. The
// live-shard layout would pin 10k × 504 steps × (2×8 B columns + 8 B
// wall) ≈ 120 MB of sample buffers plus per-shard replay plans; the
// chunk retention measures ≈ 86 MB encoded and the assertion holds it —
// plus dataset maps and allocator slack — under 128 MB.
func TestFleetChunked10kHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-router 9-week fleet is not a -short test")
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
	// Price the network itself first, so the assertion is about what the
	// fleet retains beyond it and stays valid if the build grows.
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	networkBytes := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	if len(n.Routers) != 10000 { // keep n alive to here, then release it
		t.Fatal("bad build")
	}
	n = nil
	runtime.GC()
	runtime.ReadMemStats(&m0)

	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	growth := int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
	retained := growth - networkBytes
	t.Logf("network %d MB, fleet growth %d MB, retention %d MB (chunked=%v)",
		networkBytes>>20, growth>>20, retained>>20, f.ChunkRetained())
	if !f.ChunkRetained() {
		t.Fatal("10k fleet should run chunk-retained")
	}
	if retained > 128<<20 {
		t.Fatalf("fleet retains %d MB beyond the network; want < 128 MB (encoded chunks, not live shards)", retained>>20)
	}
	if got := f.Dataset().TotalPower.Len(); got != 504 {
		t.Fatalf("got %d steps, want 504", got)
	}
}

// TestFleetEventsCopy is the aliasing regression test: mutating the
// slices returned by Events and ExtraEvents must not corrupt the
// retained schedule the next Resimulate compiles from.
func TestFleetEventsCopy(t *testing.T) {
	cfg := quickCfg()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pert := FleetEvent{
		At:     cfg.Start.Add(time.Hour),
		Router: f.Network().Routers[0].Name,
		Op:     OpScaleLoad,
		Factor: 1.5,
	}
	if err := f.Perturb(pert); err != nil {
		t.Fatal(err)
	}
	evs := f.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for i := range evs {
		evs[i].Router = "corrupted"
		evs[i].Op = FleetOp("corrupted")
	}
	extra := f.ExtraEvents()
	for i := range extra {
		extra[i].Router = "corrupted"
	}
	ds, err := f.Resimulate()
	if err != nil {
		t.Fatalf("mutating Events() corrupted the retained schedule: %v", err)
	}
	cold, err := SimulateWithEvents(cfg, []FleetEvent{pert})
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, cold, ds)
}

// TestFleetResimulateFailureStopsEarly checks that a Resimulate whose
// batch fails at apply on an early router stops replaying: every router
// of a chunk-retained 1k fleet is dirty, the second one fails, and the
// pipeline admits no router past its window after that failure. The
// fleet keeps its last dataset.
func TestFleetResimulateFailureStopsEarly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		f, err := NewFleet(hierFleetCfg(1000, workers, 6*time.Hour, time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if !f.ChunkRetained() {
			t.Fatal("a 1k hierarchical fleet must be chunk-retained")
		}
		n := f.Network()
		start := n.Config.Start
		var batch []FleetEvent
		for i, r := range n.Routers {
			batch = append(batch, FleetEvent{At: start.Add(time.Hour), Router: r.Name, Op: OpScaleLoad, Factor: 1.5})
			if i == 1 {
				batch = append(batch, FleetEvent{At: start.Add(time.Hour), Router: r.Name, Op: OpAdminDown, Iface: "eth9999"})
			}
		}
		if err := f.Perturb(batch...); err != nil {
			t.Fatal(err)
		}
		prev := f.Dataset()
		replayed0 := metricRouters.Value()
		if _, err := f.Resimulate(); err == nil {
			t.Fatal("Resimulate applied an admin-down of a missing interface")
		}
		if got, limit := metricRouters.Value()-replayed0, uint64(workers+streamWindowSlack+1); got > limit {
			t.Fatalf("workers=%d: a failure on the second router still replayed %d routers, want ≤ %d", workers, got, limit)
		}
		if f.Dataset() != prev {
			t.Fatal("failed Resimulate replaced the dataset")
		}
	}
}
