package ispnet

import (
	"math"
	"slices"
	"testing"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/units"
)

// quickCfg is a short window for fast tests: 3 days at 15-minute polls.
func quickCfg() Config {
	return Config{
		Seed:          42,
		Duration:      3 * 24 * time.Hour,
		SNMPStep:      15 * time.Minute,
		AutopowerStep: 5 * time.Minute,
	}
}

// fullCfg covers the whole 9-week window at a coarse step so the
// scheduled events all fire.
func fullCfg() Config {
	return Config{
		Seed:          42,
		SNMPStep:      time.Hour,
		AutopowerStep: 30 * time.Minute,
	}
}

func TestBuildFleetShape(t *testing.T) {
	n, err := Build(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Routers) != NumRouters {
		t.Fatalf("routers = %d, want %d", len(n.Routers), NumRouters)
	}
	var internal, external, spares int
	pops := map[string]bool{}
	for _, r := range n.Routers {
		pops[r.PoP] = true
		for _, itf := range r.Interfaces {
			switch {
			case itf.Spare:
				spares++
			case itf.External:
				external++
			default:
				internal++
			}
		}
	}
	frac := float64(external) / float64(external+internal)
	// §8: 51 % of the interfaces are external.
	if frac < 0.40 || frac > 0.62 {
		t.Errorf("external interface fraction = %.2f, want ≈0.51", frac)
	}
	if spares < 50 {
		t.Errorf("spares = %d; the fleet should stage plenty of plugged spares", spares)
	}
	if len(pops) < 10 {
		t.Errorf("PoPs = %d, want a spread-out network", len(pops))
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Routers {
		if a.Routers[i].Name != b.Routers[i].Name ||
			len(a.Routers[i].Interfaces) != len(b.Routers[i].Interfaces) {
			t.Fatalf("network not deterministic at router %d", i)
		}
	}
}

func TestInternalLinksPairedConsistently(t *testing.T) {
	n, err := Build(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range n.Routers {
		for _, itf := range r.Interfaces {
			if itf.PeerRouter == "" {
				continue
			}
			peer, ok := n.RouterByName(itf.PeerRouter)
			if !ok {
				t.Fatalf("%s/%s points at unknown router %s", r.Name, itf.Name, itf.PeerRouter)
			}
			var back *Interface
			for i := range peer.Interfaces {
				if peer.Interfaces[i].Name == itf.PeerInterface {
					back = &peer.Interfaces[i]
				}
			}
			if back == nil {
				t.Fatalf("%s/%s peer interface %s missing on %s", r.Name, itf.Name, itf.PeerInterface, peer.Name)
			}
			if back.PeerRouter != r.Name || back.PeerInterface != itf.Name {
				t.Fatalf("asymmetric link %s/%s <-> %s/%s", r.Name, itf.Name, peer.Name, back.Name)
			}
			if back.MeanLoad != itf.MeanLoad {
				t.Fatalf("link ends disagree on load: %v vs %v", itf.MeanLoad, back.MeanLoad)
			}
		}
	}
}

func TestAutopowerRouterSelection(t *testing.T) {
	n, err := Build(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	aps := n.AutopowerRouters()
	if len(aps) != 3 {
		t.Fatalf("autopower routers = %d, want 3", len(aps))
	}
	models := map[string]bool{}
	for _, r := range aps {
		models[r.Model] = true
	}
	for _, want := range []string{"8201-32FH", "NCS-55A1-24H", "N540X-8Z16G-SYS-A"} {
		if !models[want] {
			t.Errorf("missing instrumented %s (the Fig. 4 trio)", want)
		}
	}
}

func TestSimulateHeadlineNumbers(t *testing.T) {
	ds, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1 calibration: ≈21.5–22 kW, ≈0.5–1.5 Tbps carried.
	if mean := ds.TotalPower.Mean(); mean < 20500 || mean > 23000 {
		t.Errorf("total power = %.0f W, want ≈21.5–22 kW", mean)
	}
	tr := ds.TotalTraffic.Mean()
	if tr < 0.4e12 || tr > 1.6e12 {
		t.Errorf("total traffic = %.2f Tbps, want within Fig. 1's band", tr/1e12)
	}
	util := tr / ds.TotalCapacity.BitsPerSecond()
	if util < 0.005 || util > 0.04 {
		t.Errorf("utilization = %.3f, want a lightly loaded network", util)
	}
	// One router is only commissioned in week 5 (a Fig. 1 step), so a short
	// window sees the fleet minus that unit.
	if len(ds.PSUSnapshots) != NumRouters-1 {
		t.Errorf("snapshots = %d, want %d", len(ds.PSUSnapshots), NumRouters-1)
	}
}

func TestSimulateTable1Medians(t *testing.T) {
	ds, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{ // Table 1, "Measured Median" column
		"NCS-55A1-24H":      358,
		"ASR-920-24SZ-M":    73,
		"NCS-55A1-24Q6H-SS": 285,
		"NCS-55A1-48Q6H":    346,
		"ASR-9001":          335,
		"N540-24Z8Q2C-M":    159,
		"8201-32FH":         359,
		"8201-24H8FH":       296,
	}
	medians := map[string][]float64{}
	for name, med := range ds.RouterWallMedian {
		r, ok := ds.Network.RouterByName(name)
		if !ok {
			t.Fatalf("median for unknown router %s", name)
		}
		medians[r.Model] = append(medians[r.Model], med.Watts())
	}
	for modelName, target := range want {
		vals := medians[modelName]
		if len(vals) == 0 {
			t.Errorf("no routers of model %s", modelName)
			continue
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		mean := sum / float64(len(vals))
		if math.Abs(mean-target) > 0.08*target {
			t.Errorf("%s mean median = %.0f W, want ≈%.0f (Table 1)", modelName, mean, target)
		}
	}
}

func TestDiurnalVisibleInTraffic(t *testing.T) {
	ds, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	traffic, power := ds.TotalTraffic.Values(), ds.TotalPower.Values()
	if slices.Max(traffic) < 1.3*slices.Min(traffic) {
		t.Errorf("traffic swing too flat: min %.2f max %.2f Tbps",
			slices.Min(traffic)/1e12, slices.Max(traffic)/1e12)
	}
	// Power barely follows traffic (§7: the correlation is invisible at
	// network scale): the power swing must be a tiny fraction of the mean.
	swing := slices.Max(power) - slices.Min(power)
	if swing/ds.TotalPower.Mean() > 0.05 {
		t.Errorf("power swing = %.1f%% of mean; traffic should barely move network power",
			100*swing/ds.TotalPower.Mean())
	}
}

func TestAutopowerTraces(t *testing.T) {
	ds, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Autopower) != 3 {
		t.Fatalf("autopower traces = %d", len(ds.Autopower))
	}
	// The sensorless N540X must have no SNMP trace; the other two must.
	if len(ds.SNMPPower) != 2 {
		t.Fatalf("snmp traces = %d, want 2 (N540X reports nothing)", len(ds.SNMPPower))
	}
	for name := range ds.SNMPPower {
		r, _ := ds.Network.RouterByName(name)
		if r.Model == "N540X-8Z16G-SYS-A" {
			t.Error("the N540X must not report PSU power")
		}
	}
	// Autopower sampling is denser than SNMP.
	for name, ap := range ds.Autopower {
		if snmp, ok := ds.SNMPPower[name]; ok && ap.Len() <= snmp.Len() {
			t.Errorf("%s: autopower (%d) must be denser than snmp (%d)", name, ap.Len(), snmp.Len())
		}
	}
}

func TestSNMPOffsetOn8201(t *testing.T) {
	// Fig. 4a: the 8201's PSU reports match the shape but sit ≈15–20 W off.
	ds, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for name, snmp := range ds.SNMPPower {
		r, _ := ds.Network.RouterByName(name)
		if r.Model != "8201-32FH" {
			continue
		}
		diff := snmp.Median() - ds.Autopower[name].Median()
		if diff < 10 || diff > 25 {
			t.Errorf("8201 PSU offset = %.1f W, want ≈15–20", diff)
		}
	}
}

func TestFullWindowEvents(t *testing.T) {
	ds, err := Simulate(fullCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Events) < 5 {
		t.Fatalf("events = %d, want the Fig. 4 set", len(ds.Events))
	}

	// Locate the instrumented 8201 and its trace.
	var name string
	for _, r := range ds.Network.AutopowerRouters() {
		if r.Model == "8201-32FH" {
			name = r.Name
		}
	}
	ap := ds.Autopower[name]
	start := ds.Network.Config.Start

	// The FR4 removal at day 38 must drop power by ≈10–16 W.
	before := ap.Between(start.Add(36*24*time.Hour), start.Add(38*24*time.Hour)).Mean()
	after := ap.Between(start.Add(38*24*time.Hour+2*time.Hour), start.Add(40*24*time.Hour)).Mean()
	drop := before - after
	if drop < 8 || drop > 20 {
		t.Errorf("FR4 removal dropped %.1f W, want ≈13 (11 W module + port)", drop)
	}

	// The day-60 addition must raise power again.
	preAdd := ap.Between(start.Add(58*24*time.Hour), start.Add(60*24*time.Hour)).Mean()
	postAdd := ap.Between(start.Add(60*24*time.Hour+2*time.Hour), start.Add(62*24*time.Hour)).Mean()
	if postAdd <= preAdd {
		t.Errorf("interface addition did not raise power: %.1f -> %.1f", preAdd, postAdd)
	}

	// Fig. 1 steps: total power in week 4 (after the decommission) must be
	// clearly below week 1.
	w1 := ds.TotalPower.Between(start, start.Add(7*24*time.Hour)).Mean()
	w4 := ds.TotalPower.Between(start.Add(22*24*time.Hour), start.Add(28*24*time.Hour)).Mean()
	if w1-w4 < 100 {
		t.Errorf("decommissioning step too small: week1 %.0f vs week4 %.0f", w1, w4)
	}
	// ... and back up after the week-5 commissioning.
	w8 := ds.TotalPower.Between(start.Add(49*24*time.Hour), start.Add(56*24*time.Hour)).Mean()
	if w8 <= w4 {
		t.Errorf("commissioning step missing: week4 %.0f vs week8 %.0f", w4, w8)
	}

	// Snapshot at mid-window: the decommissioned router (and the
	// not-yet-commissioned one) are absent.
	if len(ds.PSUSnapshots) != NumRouters-2 {
		t.Errorf("snapshots = %d, want %d", len(ds.PSUSnapshots), NumRouters-2)
	}
}

func TestIfaceRatesTrackFlapping(t *testing.T) {
	ds, err := Simulate(fullCfg())
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, r := range ds.Network.AutopowerRouters() {
		if r.Model == "8201-32FH" {
			name = r.Name
		}
	}
	start := ds.Network.Config.Start
	flapStart := start.Add(51 * 24 * time.Hour)
	flapEnd := start.Add(54 * 24 * time.Hour)
	// Exactly one interface must go silent across the repair window and
	// come back after.
	silent := 0
	for _, rates := range ds.IfaceRates[name] {
		during := rates.Between(flapStart.Add(2*time.Hour), flapEnd.Add(-2*time.Hour))
		afterWindow := rates.Between(flapEnd.Add(2*time.Hour), flapEnd.Add(48*time.Hour))
		if during.Len() > 0 && slices.Max(during.Values()) == 0 &&
			afterWindow.Len() > 0 && slices.Max(afterWindow.Values()) > 0 {
			silent++
		}
	}
	if silent != 1 {
		t.Errorf("silent-then-recovered interfaces = %d, want exactly the flapping one", silent)
	}
}

func TestSimulateOSUpgrade(t *testing.T) {
	series, upgrade, err := SimulateOSUpgrade(9)
	if err != nil {
		t.Fatal(err)
	}
	before := series.Between(upgrade.Add(-5*24*time.Hour), upgrade).Mean()
	after := series.Between(upgrade, upgrade.Add(5*24*time.Hour)).Mean()
	bump := after - before
	// Fig. 8: ≈45 W (+12 %).
	if bump < 35 || bump > 55 {
		t.Errorf("OS upgrade bump = %.1f W, want ≈45", bump)
	}
	if rel := bump / before; rel < 0.08 || rel > 0.16 {
		t.Errorf("relative bump = %.1f%%, want ≈12%%", rel*100)
	}
}

func TestLoadAtBounds(t *testing.T) {
	n, err := Build(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := n.Routers[0]
	ts := n.Config.Start
	for i := range r.Interfaces {
		itf := &r.Interfaces[i]
		for d := 0; d < 48; d++ {
			load := n.LoadAt(itf, r, ts.Add(time.Duration(d)*30*time.Minute))
			if load < 0 {
				t.Fatalf("negative load on %s", itf.Name)
			}
			if itf.Spare && load != 0 {
				t.Fatalf("spare %s carries traffic", itf.Name)
			}
			if load > itf.Profile.Speed*2 {
				t.Fatalf("load %v exceeds 2x line rate on %s", load, itf.Name)
			}
		}
	}
}

func TestLoadAtDeterministic(t *testing.T) {
	n, _ := Build(quickCfg())
	r := n.Routers[3]
	itf := &r.Interfaces[0]
	ts := n.Config.Start.Add(90 * time.Minute)
	if n.LoadAt(itf, r, ts) != n.LoadAt(itf, r, ts) {
		t.Error("LoadAt must be deterministic per (interface, time)")
	}
}

func TestTotalCapacityCountsLinksOnce(t *testing.T) {
	ds, err := Simulate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var raw units.BitRate
	for _, r := range ds.Network.Routers {
		for _, itf := range r.Interfaces {
			if !itf.Spare {
				raw += itf.Profile.Speed
			}
		}
	}
	if ds.TotalCapacity != raw/2 {
		t.Errorf("capacity = %v, want %v (each link once)", ds.TotalCapacity, raw/2)
	}
}

// TestInventoryMatchesDeviceState checks the invariant between the
// deployment records and the electrical simulation: on the device a
// shard materializes for a router, every non-spare record is plugged and
// admin-up, and every spare is plugged but admin-down.
func TestInventoryMatchesDeviceState(t *testing.T) {
	n, err := Build(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	dev := new(device.Router)
	for i, r := range n.Routers {
		materialized(t, n, i, dev)
		for _, itf := range r.Interfaces {
			present, admin, _, key, err := dev.InterfaceState(itf.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !present {
				t.Fatalf("%s/%s recorded but not plugged", r.Name, itf.Name)
			}
			if key != itf.Profile {
				t.Fatalf("%s/%s profile mismatch: device %v, record %v",
					r.Name, itf.Name, key, itf.Profile)
			}
			if itf.Spare && admin {
				t.Fatalf("%s/%s is a spare but admin-up", r.Name, itf.Name)
			}
			if !itf.Spare && !admin {
				t.Fatalf("%s/%s configured but admin-down", r.Name, itf.Name)
			}
		}
	}
}
