package ispnet

import (
	"reflect"
	"testing"
	"time"
)

// rebuildRouter rebuilds a router from a blueprint captured off r, the
// router at fleet index i of a network built with seed.
func rebuildRouter(t *testing.T, r *Router, seed int64, i int) *Router {
	t.Helper()
	nr, err := newBlueprint(r, deviceSeed(seed, i)).rebuild()
	if err != nil {
		t.Fatal(err)
	}
	return nr
}

// TestBlueprintRebuildMatchesBuild is the blueprint-equivalence
// property: for every router of the calibrated build and of a generated
// 1k-router build, the blueprint rebuild is deeply equal to a fresh
// Build's router — deployment records, device state and device rng
// included. This is what lets Resimulate rebuild one dirty router instead
// of the whole fleet.
func TestBlueprintRebuildMatchesBuild(t *testing.T) {
	for _, cfg := range []Config{{Seed: 42}, {Seed: 42, Routers: 1000}} {
		n, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range n.Routers {
			if got := rebuildRouter(t, r, cfg.Seed, i); !reflect.DeepEqual(got, fresh.Routers[i]) {
				t.Fatalf("routers=%d: rebuild of router %d (%s) differs from Build", len(n.Routers), i, r.Name)
			}
		}
	}
}

// TestBlueprintCapturedBeforeEvents pins the capture rule: a router whose
// retained copy has been mutated by OpUnplug, OpAddInterfaces and
// OpScaleLoad still rebuilds to its pristine Build form, because its
// blueprint was taken before the first replay applied an event to it. A
// blueprint taken from the mutated router must not pass the same check.
func TestBlueprintCapturedBeforeEvents(t *testing.T) {
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
			i, unplug := mutableRouter(t, f.Network())
			r := f.Network().Routers[i]
			start := f.Network().Config.Start
			for round, evs := range [][]FleetEvent{
				{
					{At: start.Add(time.Hour), Router: r.Name, Op: OpUnplug, Iface: unplug},
					{At: start.Add(2 * time.Hour), Router: r.Name, Op: OpAddInterfaces, Count: 1},
				},
				{{At: start.Add(3 * time.Hour), Router: r.Name, Op: OpScaleLoad, Factor: 1.5}},
			} {
				if err := f.Perturb(evs...); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Resimulate(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}

			fresh, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.blueprints[i].rebuild()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, fresh.Routers[i]) {
				t.Fatalf("blueprint of %s does not rebuild its pristine form", r.Name)
			}
			late := rebuildRouter(t, f.Network().Routers[i], tc.cfg.Seed, i)
			if reflect.DeepEqual(late, fresh.Routers[i]) {
				t.Fatalf("a blueprint taken after the events rebuilt %s pristine; the check has no teeth", r.Name)
			}
		})
	}
}

// mutableRouter picks a router that OpUnplug and OpAddInterfaces can
// both act on: uninstrumented, with a configured DAC (the add template)
// and a configured non-DAC interface to unplug. It returns the router's
// fleet index and the interface to unplug.
func mutableRouter(t *testing.T, n *Network) (int, string) {
	t.Helper()
	for i, r := range n.Routers {
		if r.Autopower {
			continue
		}
		var dac, other string
		for _, itf := range r.Interfaces {
			switch {
			case itf.Spare:
			case itf.Profile.Transceiver == "Passive DAC":
				dac = itf.Name
			case other == "":
				other = itf.Name
			}
		}
		if dac != "" && other != "" {
			return i, other
		}
	}
	t.Fatal("no router with both a DAC and a non-DAC interface")
	return 0, ""
}

// TestFleetResimulateAllocsODirty is the O(dirty) regression guard: a
// one-router Perturb+Resimulate on a 1k-router fleet must allocate under
// a tenth of the objects one Build of that fleet does. Rebuilding the
// whole fleet per Resimulate — the behavior this replaced — allocates
// more than Build alone.
func TestFleetResimulateAllocsODirty(t *testing.T) {
	cfg := hierFleetCfg(1000, 1, 24*time.Hour, time.Hour)
	build := testing.AllocsPerRun(1, func() {
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
	})
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Network().Routers[len(f.Network().Routers)/2]
	at := cfg.Start.Add(cfg.Duration / 3)
	factor := 1.5
	resim := testing.AllocsPerRun(5, func() {
		factor = 1 / factor
		if err := f.Perturb(FleetEvent{At: at, Router: r.Name, Op: OpScaleLoad, Factor: factor}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Resimulate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Build(1000): %.0f objects; one-router Resimulate: %.0f objects", build, resim)
	if resim >= build/10 {
		t.Fatalf("one-router Resimulate allocates %.0f objects, want < %.0f (a tenth of Build)", resim, build/10)
	}
}
