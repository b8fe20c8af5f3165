package ispnet

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestFleetColdMatchesSimulate pins the retained-state entry point to the
// batch path: a fresh Fleet's dataset is bit-identical to Simulate.
func TestFleetColdMatchesSimulate(t *testing.T) {
	want, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, f.Dataset(), want)
}

// TestFleetResimulateGolden is the incremental-correctness golden test:
// over the full 9-week window — with every built-in Fig. 4 event firing —
// a fixed perturbation batch applied through Perturb+Resimulate must
// reproduce, bit for bit, a cold SimulateWithEvents over the merged
// event list.
func TestFleetResimulateGolden(t *testing.T) {
	f, err := NewFleet(fullCfg())
	if err != nil {
		t.Fatal(err)
	}
	extra := goldenPerturbation(t, f.Network())
	if err := f.Perturb(extra...); err != nil {
		t.Fatal(err)
	}
	got, err := f.Resimulate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := SimulateWithEvents(fullCfg(), extra)
	if err != nil {
		t.Fatal(err)
	}
	datasetsIdentical(t, got, want)

	// Resimulate with nothing pending is a no-op returning the same
	// dataset object.
	again, err := f.Resimulate()
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Fatal("no-op Resimulate rebuilt the dataset")
	}
}

// goldenPerturbation builds a fixed three-router perturbation batch that
// exercises every structural op: an interface taken down and brought back,
// a load scale on an instrumented router, and a PSU power-cycle.
func goldenPerturbation(t *testing.T, n *Network) []FleetEvent {
	t.Helper()
	start := n.Config.Start
	plain := ""
	for _, r := range n.Routers {
		if !r.Autopower && len(r.Interfaces) > 0 {
			plain = r.Name
			break
		}
	}
	if plain == "" {
		t.Fatal("no uninstrumented router with interfaces")
	}
	r := n.byName[plain]
	var iface string
	for _, itf := range r.Interfaces {
		if !itf.Spare {
			iface = itf.Name
			break
		}
	}
	if iface == "" {
		t.Fatalf("no configured interface on %s", plain)
	}
	auto := n.AutopowerRouters()
	if len(auto) < 2 {
		t.Fatal("want at least two instrumented routers")
	}
	return []FleetEvent{
		{At: start.Add(10 * 24 * time.Hour), Router: plain, Op: OpAdminDown, Iface: iface},
		{At: start.Add(20 * 24 * time.Hour), Router: plain, Op: OpAdminUp, Iface: iface},
		{At: start.Add(15 * 24 * time.Hour), Router: auto[0].Name, Op: OpScaleLoad, Factor: 1.5},
		{At: start.Add(30 * 24 * time.Hour), Router: auto[1].Name, Op: OpPowerCycle, PSU: 0},
	}
}

// TestFleetResimulatePropertyRandom is the property test of the
// incremental contract: for random event batches over random routers —
// applied across multiple Perturb/Resimulate rounds — the final dataset
// is bit-identical to one cold SimulateWithEvents holding the merged
// event list, at Workers=1 and Workers=8.
func TestFleetResimulatePropertyRandom(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for trial := int64(0); trial < 3; trial++ {
			cfg := quickCfg()
			cfg.Workers = workers
			rng := rand.New(rand.NewSource(4000 + trial))

			f, err := NewFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var all []FleetEvent
			rounds := 1 + rng.Intn(3)
			for round := 0; round < rounds; round++ {
				batch := randomEvents(rng, f.Network(), 1+rng.Intn(5))
				all = append(all, batch...)
				if err := f.Perturb(batch...); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Resimulate(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := SimulateWithEvents(cfg, all)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("workers=%d trial=%d: %d events over %d rounds", workers, trial, len(all), rounds)
			datasetsIdentical(t, f.Dataset(), want)
		}
	}
}

// randomEvents draws a batch of valid perturbations against the current
// fleet. Ops are limited to mutations that cannot fail at apply time on
// an arbitrary router (no unplug/add, whose preconditions depend on the
// router's remaining ports).
func randomEvents(rng *rand.Rand, n *Network, count int) []FleetEvent {
	var evs []FleetEvent
	start, dur := n.Config.Start, n.Config.Duration
	for len(evs) < count {
		r := n.Routers[rng.Intn(len(n.Routers))]
		at := start.Add(time.Duration(rng.Int63n(int64(dur))))
		switch rng.Intn(4) {
		case 0, 1:
			var names []string
			for _, itf := range r.Interfaces {
				if !itf.Spare {
					names = append(names, itf.Name)
				}
			}
			if len(names) == 0 {
				continue
			}
			iface := names[rng.Intn(len(names))]
			op := OpAdminDown
			if rng.Intn(2) == 0 {
				op = OpAdminUp
			}
			evs = append(evs, FleetEvent{At: at, Router: r.Name, Op: op, Iface: iface})
		case 2:
			evs = append(evs, FleetEvent{
				At: at, Router: r.Name, Op: OpScaleLoad,
				Factor: 0.5 + rng.Float64(),
			})
		case 3:
			evs = append(evs, FleetEvent{At: at, Router: r.Name, Op: OpPowerCycle, PSU: 0})
		}
	}
	return evs
}

// TestFleetShardCounters checks the dirty/reused telemetry: a cold build
// replays the whole fleet, a 1-router perturbation replays exactly one
// shard and reuses the rest.
func TestFleetShardCounters(t *testing.T) {
	replayed0 := metricShardsReplayed.Value()
	reused0 := metricShardsReused.Value()

	f, err := NewFleet(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricShardsReplayed.Value() - replayed0; got != NumRouters {
		t.Fatalf("cold build replayed %d shards, want %d", got, NumRouters)
	}
	if got := metricShardsReused.Value() - reused0; got != 0 {
		t.Fatalf("cold build reused %d shards, want 0", got)
	}

	target := f.Network().Routers[0]
	if err := f.Perturb(FleetEvent{
		At: f.cfg.Start.Add(24 * time.Hour), Router: target.Name,
		Op: OpScaleLoad, Factor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if f.DirtyRouters() != 1 {
		t.Fatalf("dirty = %d, want 1", f.DirtyRouters())
	}
	replayed1 := metricShardsReplayed.Value()
	reused1 := metricShardsReused.Value()
	if _, err := f.Resimulate(); err != nil {
		t.Fatal(err)
	}
	if got := metricShardsReplayed.Value() - replayed1; got != 1 {
		t.Fatalf("resimulate replayed %d shards, want 1", got)
	}
	if got := metricShardsReused.Value() - reused1; got != NumRouters-1 {
		t.Fatalf("resimulate reused %d shards, want %d", got, NumRouters-1)
	}
	if f.DirtyRouters() != 0 {
		t.Fatalf("dirty after resimulate = %d, want 0", f.DirtyRouters())
	}
}

// TestFleetPerturbValidates checks batch-atomic validation: a batch with
// one bad event queues nothing.
func TestFleetPerturbValidates(t *testing.T) {
	f, err := NewFleet(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	good := FleetEvent{
		At: f.cfg.Start, Router: f.Network().Routers[0].Name,
		Op: OpScaleLoad, Factor: 2,
	}
	for _, bad := range []FleetEvent{
		{At: f.cfg.Start, Router: "no-such-router", Op: OpScaleLoad, Factor: 2},
		{At: f.cfg.Start, Router: good.Router, Op: "warp-core-breach"},
		{At: f.cfg.Start, Router: good.Router, Op: OpScaleLoad, Factor: -1},
		{At: f.cfg.Start, Router: good.Router, Op: OpAdminDown},
	} {
		if err := f.Perturb(good, bad); err == nil {
			t.Fatalf("Perturb accepted bad event %+v", bad)
		}
		if f.DirtyRouters() != 0 {
			t.Fatalf("bad batch left %d routers dirty", f.DirtyRouters())
		}
	}
}

// TestFleetResimulateFailureRollsBack pins the transactional Resimulate
// on the live-shard (107) and chunk-retained (1k) paths. A batch holding
// a valid event on an early router and an event that validates but fails
// at apply on a later one — so the early router's replay completes before
// the failure — must leave the fleet exactly as the last successful
// Resimulate left it, and a following valid batch must commit on top of
// that state alone.
func TestFleetResimulateFailureRollsBack(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"routers=107", quickCfg()},
		{"routers=1k", hierFleetCfg(1000, 1, 24*time.Hour, time.Hour)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFleet(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := f.Network()
			start := n.Config.Start
			lo, hi := n.Routers[1].Name, n.Routers[len(n.Routers)-2].Name
			// Commit one perturbation first, so the state to preserve is
			// more than the cold build.
			if err := f.Perturb(FleetEvent{At: start.Add(2 * time.Hour), Router: lo, Op: OpScaleLoad, Factor: 1.5}); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Resimulate(); err != nil {
				t.Fatal(err)
			}
			prevDS, prevEvents, prevExtra := f.Dataset(), f.Events(), f.ExtraEvents()
			prevRouters := append([]*Router(nil), n.Routers...)
			prevRetention := retentionOf(f)

			if err := f.Perturb(
				FleetEvent{At: start.Add(time.Hour), Router: lo, Op: OpScaleLoad, Factor: 2},
				FleetEvent{At: start.Add(time.Hour), Router: hi, Op: OpAdminDown, Iface: "eth9999"},
			); err != nil {
				t.Fatalf("the failing event must pass validation: %v", err)
			}
			if _, err := f.Resimulate(); err == nil {
				t.Fatal("Resimulate applied an admin-down of a missing interface")
			}

			if f.Dataset() != prevDS {
				t.Fatal("failed Resimulate replaced the dataset")
			}
			cold, err := SimulateWithEvents(tc.cfg, prevExtra)
			if err != nil {
				t.Fatal(err)
			}
			datasetsIdentical(t, cold, f.Dataset())
			if f.Network() != n || !reflect.DeepEqual(n.Routers, prevRouters) {
				t.Fatal("failed Resimulate swapped routers in the network")
			}
			for _, r := range n.Routers {
				if n.byName[r.Name] != r {
					t.Fatalf("failed Resimulate left byName[%s] pointing at a staged router", r.Name)
				}
			}
			if !reflect.DeepEqual(retentionOf(f), prevRetention) {
				t.Fatal("failed Resimulate changed the retained replay results")
			}
			if !reflect.DeepEqual(f.Events(), prevEvents) || !reflect.DeepEqual(f.ExtraEvents(), prevExtra) {
				t.Fatal("failed Resimulate left its batch in the schedule")
			}
			if f.DirtyRouters() != 0 {
				t.Fatalf("failed Resimulate left %d routers dirty", f.DirtyRouters())
			}

			if err := f.Perturb(FleetEvent{At: start.Add(3 * time.Hour), Router: hi, Op: OpScaleLoad, Factor: 0.5}); err != nil {
				t.Fatal(err)
			}
			ds, err := f.Resimulate()
			if err != nil {
				t.Fatal(err)
			}
			if got := len(f.ExtraEvents()); got != len(prevExtra)+1 {
				t.Fatalf("committed schedule has %d perturbations, want %d", got, len(prevExtra)+1)
			}
			cold, err = SimulateWithEvents(tc.cfg, f.ExtraEvents())
			if err != nil {
				t.Fatal(err)
			}
			datasetsIdentical(t, cold, ds)
		})
	}
}

// retentionOf snapshots what a fleet retains between Resimulates, deeply
// enough that an in-place overwrite of a retained chunk shows.
func retentionOf(f *Fleet) any {
	if !f.chunked {
		return append([]*routerShard(nil), f.shards...)
	}
	out := make([]routerChunks, len(f.chunks))
	for i, rc := range f.chunks {
		rc.power = append([]byte(nil), rc.power...)
		rc.traffic = append([]byte(nil), rc.traffic...)
		out[i] = rc
	}
	return out
}

// DirtyRouters returns the number of routers queued for replay by
// perturbations since the last Resimulate. Only tests read it.
func (f *Fleet) DirtyRouters() int {
	dirty := make(map[string]bool)
	for _, e := range f.pending {
		dirty[e.Router] = true
	}
	return len(dirty)
}

// Events returns a sorted copy of the merged declarative schedule
// (built-in plus every perturbation, pending ones included): the event
// list the tests compare across a failed Resimulate.
func (f *Fleet) Events() []FleetEvent {
	out := make([]FleetEvent, 0, len(f.base)+len(f.extra)+len(f.pending))
	out = append(out, f.base...)
	out = append(out, f.extra...)
	out = append(out, f.pending...)
	sortFleetEvents(out)
	return out
}

// TestFleetRetainsNoDevice checks that devices live only inside their
// shard: after NewFleet and after a Resimulate, no retained shard keeps
// its device, its meter (which would reach the device through its
// channel) or its compiled events (whose closures capture the device),
// and the player holds no more devices than its window admits at once.
func TestFleetRetainsNoDevice(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 3
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for i, sh := range f.shards {
			if sh.dev != nil || sh.meter != nil || sh.events != nil {
				t.Fatalf("%s: retained shard %d (%s) still reaches its device", when, i, sh.router.Name)
			}
		}
		if got, max := len(f.player.devices), cfg.Workers+streamWindowSlack; got == 0 || got > max {
			t.Fatalf("%s: player keeps %d devices, want 1..%d", when, got, max)
		}
	}
	check("NewFleet")
	r := f.Network().AutopowerRouters()[0]
	if err := f.Perturb(FleetEvent{At: f.cfg.Start.Add(time.Hour), Router: r.Name, Op: OpScaleLoad, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Resimulate(); err != nil {
		t.Fatal(err)
	}
	check("Resimulate")
}
