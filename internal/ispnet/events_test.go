package ispnet

import (
	"testing"
	"time"

	"fantasticjoules/internal/device"
)

// TestSortScheduleStableOnTies checks that events due at the same instant
// keep their schedule (append) order after sorting — the apply-order
// guarantee the simulation gives at every step.
func TestSortScheduleStableOnTies(t *testing.T) {
	at := time.Date(2024, 9, 10, 0, 0, 0, 0, time.UTC)
	later := at.Add(24 * time.Hour)
	evs := []FleetEvent{
		{At: later, Router: "r1", Desc: "r1 late"},
		{At: at, Router: "r1", Desc: "r1 first"},
		{At: at, Router: "r2", Desc: "r2 first"},
		{At: at, Router: "r1", Desc: "r1 second"},
		{At: at, Router: "r2", Desc: "r2 second"},
	}
	sortFleetEvents(evs)

	wantOrder := []string{"r1 first", "r2 first", "r1 second", "r2 second", "r1 late"}
	for i, want := range wantOrder {
		if evs[i].Desc != want {
			t.Fatalf("sorted[%d] = %q, want %q", i, evs[i].Desc, want)
		}
	}
}

// TestPartitionEventsPreservesPerRouterOrder checks that splitting the
// sorted schedule into per-router queues never reorders a router's own
// events, ties included.
func TestPartitionEventsPreservesPerRouterOrder(t *testing.T) {
	at := time.Date(2024, 9, 10, 0, 0, 0, 0, time.UTC)
	evs := []FleetEvent{
		{At: at, Router: "r1", Desc: "a"},
		{At: at, Router: "r2", Desc: "b"},
		{At: at, Router: "r1", Desc: "c"},
		{At: at.Add(time.Hour), Router: "r2", Desc: "d"},
		{At: at.Add(time.Hour), Router: "r1", Desc: "e"},
	}
	sortFleetEvents(evs)
	byRouter := splitByRouter(evs)

	want := map[string][]string{
		"r1": {"a", "c", "e"},
		"r2": {"b", "d"},
	}
	if len(byRouter) != len(want) {
		t.Fatalf("split into %d routers, want %d", len(byRouter), len(want))
	}
	for router, descs := range want {
		got := byRouter[router]
		if len(got) != len(descs) {
			t.Fatalf("%s: %d events, want %d", router, len(got), len(descs))
		}
		for i, d := range descs {
			if got[i].Desc != d {
				t.Fatalf("%s[%d] = %q, want %q", router, i, got[i].Desc, d)
			}
		}
	}
}

// TestRealSchedulePartitionConsistent checks the invariants on the real
// Fig. 4 schedule as cold runs and NewFleet build it: the global schedule
// is time-sorted, and each router's queue is the subsequence of the
// global schedule belonging to that router, in the same relative order.
func TestRealSchedulePartitionConsistent(t *testing.T) {
	n, err := Build(fullCfg())
	if err != nil {
		t.Fatal(err)
	}
	evs, byRouter, err := n.schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) < 5 {
		t.Fatalf("events = %d, want the Fig. 4 set", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At.Before(evs[i-1].At) {
			t.Fatalf("schedule not time-sorted at %d: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}

	// Walking the global schedule must replay each per-router queue front
	// to back — i.e. splitting never reorders a router's own events.
	cursor := make(map[string]int)
	total := 0
	for _, e := range evs {
		q := byRouter[e.Router]
		i := cursor[e.Router]
		if i >= len(q) || q[i] != e {
			t.Fatalf("per-router queue for %s out of order at global event %q", e.Router, e.describe())
		}
		cursor[e.Router] = i + 1
		total++
	}
	for router, q := range byRouter {
		if cursor[router] != len(q) {
			t.Fatalf("%s: %d events unconsumed", router, len(q)-cursor[router])
		}
	}
	if total != len(evs) {
		t.Fatalf("split lost events: %d vs %d", total, len(evs))
	}
}

// TestFlapRepairOrdering checks that a down/up pair on the same interface
// applies in schedule order end to end: after the full window the repaired
// interface must be admin-up again (the day-54 re-enable lands after the
// day-51 disable).
func TestFlapRepairOrdering(t *testing.T) {
	ds, err := Simulate(fullCfg())
	if err != nil {
		t.Fatal(err)
	}
	var r *Router
	for _, cand := range ds.Network.AutopowerRouters() {
		if cand.Model == "8201-32FH" {
			r = cand
		}
	}
	if r == nil {
		t.Fatal("no instrumented 8201-32FH")
	}
	dev := playedDevice(t, fullCfg(), r.Name)
	// Find the flapped DAC from the event log and check its final state.
	var flapped bool
	for _, e := range ds.Events {
		if e.Router == r.Name && e.Description == "repaired interface brought back up" {
			flapped = true
		}
	}
	if !flapped {
		t.Fatal("repair event missing from the schedule")
	}
	downDACs := 0
	for _, itf := range r.Interfaces {
		if itf.Spare {
			continue
		}
		_, admin, _, _, err := dev.InterfaceState(itf.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !admin && itf.Profile.Transceiver == "Passive DAC" {
			downDACs++
		}
	}
	if downDACs != 0 {
		t.Errorf("%d configured DACs still admin-down after the repair window", downDACs)
	}
}

// playedDevice plays a cold run of cfg and returns the named router's
// device as its shard left it after the window, swapped out before the
// pipeline takes it back.
func playedDevice(t *testing.T, cfg Config, router string) *device.Router {
	t.Helper()
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, byRouter, err := n.schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	var dev *device.Router
	if err := (&player{workers: 1}).play(n, n.stepGrid(), n.jobs(byRouter, n.meterSeeds()), func(_ int, sh *routerShard) (bool, error) {
		if sh.router.Name == router {
			dev = sh.dev
			sh.dev = new(device.Router) // keep the played one out of the free list
		}
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if dev == nil {
		t.Fatalf("no router %s", router)
	}
	return dev
}
