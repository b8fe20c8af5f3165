package ispnet

import (
	"reflect"
	"testing"
	"time"

	"fantasticjoules/internal/device"
)

// materialized resets dev to router i of n the way a shard does before
// play: the device the pipeline plays the router on.
func materialized(t *testing.T, n *Network, i int, dev *device.Router) *device.Router {
	t.Helper()
	sh := &routerShard{net: n, router: n.Routers[i], idx: i, dev: dev}
	if err := sh.materialize(); err != nil {
		t.Fatal(err)
	}
	return dev
}

// deployedDevice is the reference a materialized device must equal: a
// device.New of the router's model and fleet-index seed, then the device
// calls the template deploy makes — every group member plugged, admin-up
// and linked on the next port, then the spares plugged — walked from the
// template, not from the router's interface list.
func deployedDevice(t *testing.T, n *Network, i int) *device.Router {
	t.Helper()
	r := n.Routers[i]
	dev, err := device.New(n.specs[r.Model], r.Name, deviceSeed(n.Config.Seed, i))
	if err != nil {
		t.Fatal(err)
	}
	tpl := fleetPlan()[r.Model]
	names := dev.InterfaceNames()
	next := 0
	plug := func(g deployGroup, up bool) {
		name := names[next]
		next++
		if err := dev.PlugTransceiver(name, g.trx, g.speed); err != nil {
			t.Fatal(err)
		}
		if !up {
			return
		}
		if err := dev.SetAdmin(name, true); err != nil {
			t.Fatal(err)
		}
		if err := dev.SetLink(name, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range tpl.groups {
		for k := 0; k < g.n; k++ {
			plug(g, true)
		}
	}
	for k := 0; k < tpl.spares && len(tpl.groups) > 0; k++ {
		plug(tpl.groups[tpl.spareGroupIndex()], false)
	}
	return dev
}

// TestBlueprintRebuildMatchesBuild is the device-equivalence property:
// for every router of the calibrated build and of a generated 1k-router
// build, the device a shard materializes — on one recycled device that
// played the previous router first — is deeply equal to device.New plus
// the deploy sequence, device rng included. This is what lets Build
// carry no devices: a router's device follows from its model, its
// fleet-index seed and its pristine interfaces.
func TestBlueprintRebuildMatchesBuild(t *testing.T) {
	for _, cfg := range []Config{{Seed: 42}, {Seed: 42, Routers: 1000}} {
		n, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev := new(device.Router)
		for i, r := range n.Routers {
			got := materialized(t, n, i, dev)
			if want := deployedDevice(t, n, i); !reflect.DeepEqual(got, want) {
				t.Fatalf("routers=%d: materialized device of router %d (%s) differs from device.New plus deploy", len(n.Routers), i, r.Name)
			}
			// Leave state behind for the next router's Reset to clear.
			st := dev.BeginStep()
			st.Advance(time.Hour)
			st.WallPower()
			st.End()
			if err := dev.SetAdmin(r.Interfaces[0].Name, false); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBlueprintCapturedBeforeEvents guards the failure mode the former
// lazy blueprint capture existed for: a router's replay source must be
// its pristine form, never the retained router its events have already
// mutated. Each router here is first perturbed only after two
// Resimulates. On the calibrated build it is the instrumented 8201-32FH,
// whose built-in schedule unplugs an interface (so its retained router
// has lost it by then); on both builds a router whose first perturbation
// unplugged and added interfaces is perturbed again. Every Resimulate
// must match a cold SimulateWithEvents of the same schedule.
func TestBlueprintCapturedBeforeEvents(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"routers=107", Config{Seed: 42, SNMPStep: 6 * time.Hour, AutopowerStep: 3 * time.Hour}},
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
			i, unplug := mutableRouter(t, n)
			a := n.Routers[i].Name
			late := n.Routers[(i+len(n.Routers)/2)%len(n.Routers)].Name
			for _, r := range n.Routers {
				if r.Autopower && r.Model == "8201-32FH" {
					late = r.Name
				}
			}
			if late == a {
				t.Fatal("the late router is the early one")
			}
			if !n.Hierarchical() {
				// The built-in unplug has fired on the retained router: a
				// copy taken from it now would replay the wrong deployment.
				r, _ := n.RouterByName(late)
				p, _ := f.Pristine().RouterByName(late)
				if len(r.Interfaces) != len(p.Interfaces)-1+2 {
					t.Fatalf("%s kept %d of %d pristine interfaces; the built-in unplug and add did not fire",
						late, len(r.Interfaces), len(p.Interfaces))
				}
			}
			for round, evs := range [][]FleetEvent{
				{
					{At: start.Add(time.Hour), Router: a, Op: OpUnplug, Iface: unplug},
					{At: start.Add(2 * time.Hour), Router: a, Op: OpAddInterfaces, Count: 1},
				},
				{{At: start.Add(3 * time.Hour), Router: a, Op: OpScaleLoad, Factor: 1.5}},
				{
					{At: start.Add(4 * time.Hour), Router: late, Op: OpScaleLoad, Factor: 0.5},
					{At: start.Add(5 * time.Hour), Router: a, Op: OpScaleLoad, Factor: 2},
				},
			} {
				if err := f.Perturb(evs...); err != nil {
					t.Fatal(err)
				}
				ds, err := f.Resimulate()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				cold, err := SimulateWithEvents(tc.cfg, f.ExtraEvents())
				if err != nil {
					t.Fatal(err)
				}
				if err := DiffDatasets(cold, ds); err != nil {
					t.Fatalf("round %d: Resimulate differs from cold: %v", round, err)
				}
			}
			// The pristine network is never mutated by a replay.
			fresh, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range f.Pristine().Routers {
				if !reflect.DeepEqual(r, fresh.Routers[k]) {
					t.Fatalf("pristine %s differs from a fresh Build", r.Name)
				}
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
