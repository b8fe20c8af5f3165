package device

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"fantasticjoules/internal/model"
	"fantasticjoules/internal/units"
)

// playDevice drives r through the events a deployed device sees: every
// port plugged with the model's first truth profile, most of them brought
// up and loaded, one taken down and one unplugged again, an OS upgrade, a
// linecard where the chassis is modular, a PSU taken offline where there
// is a spare, and the steps, sensor reads, power cycle and snapshot that
// advance its rng. It leaves every kind of state Reset must clear.
func playDevice(t *testing.T, r *Router) {
	t.Helper()
	spec := r.Spec()
	keys := make([]model.ProfileKey, 0, len(spec.Truth))
	for k := range spec.Truth {
		if k.Port == spec.PortType {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	if len(keys) == 0 {
		t.Fatalf("%s: no truth profile for its port type", spec.Name)
	}
	key := keys[0]
	names := r.InterfaceNames()
	for i, name := range names {
		if err := r.PlugTransceiver(name, key.Transceiver, key.Speed); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			continue // a spare
		}
		if err := r.SetAdmin(name, true); err != nil {
			t.Fatal(err)
		}
		if err := r.SetLink(name, true); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 5; step++ {
		st := r.BeginStep()
		for h := range names {
			if h%4 == 3 {
				continue
			}
			load := units.BitRate(float64(step+h+1) * 0.01 * key.Speed.BitsPerSecond())
			if err := st.SetTraffic(Handle(h), load, units.PacketRate(load.BitsPerSecond()/8000)); err != nil {
				st.End()
				t.Fatal(err)
			}
		}
		st.Advance(5 * time.Minute)
		st.WallPower()
		st.End()
		if _, err := r.ReportedTotalPower(); err != nil && err != ErrNoPowerSensor {
			t.Fatal(err)
		}
	}
	if err := r.SetAdmin(names[0], false); err != nil {
		t.Fatal(err)
	}
	if err := r.UnplugTransceiver(names[1]); err != nil {
		t.Fatal(err)
	}
	r.UpgradeOS("9.9.9")
	r.SetTemperature(31)
	if spec.Slots > 0 {
		if err := r.InstallLinecard(spec.Linecards[0].Name); err != nil {
			t.Fatal(err)
		}
	}
	if r.PSUCount() > 1 {
		if err := r.SetPSUOnline(0, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.PowerCycle(r.PSUCount() - 1); err != nil {
		t.Fatal(err)
	}
	r.Advance(time.Hour)
	r.EnvSnapshot()
	if len(r.Inventory()) == 0 || r.WallPower() <= 0 {
		t.Fatalf("%s: the played device has no inventory or draws no power", spec.Name)
	}
}

// TestResetMatchesNew is the differential test of the recycled device:
// for every ordered pair of catalog models, a device of the first model
// is played and then Reset to the second model under another name and
// seed. It must be deeply equal to a device.New of the second — ports,
// PSUs, caches, clock and rng state included — and both must draw the
// same next 1,000 rng values.
func TestResetMatchesNew(t *testing.T) {
	names := CatalogNames()
	if len(names) < 2 {
		t.Fatalf("catalog has %d models", len(names))
	}
	for i, from := range names {
		for j, to := range names {
			fromSpec, err := Spec(from)
			if err != nil {
				t.Fatal(err)
			}
			toSpec, err := Spec(to)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := New(fromSpec, "played", int64(100+i))
			if err != nil {
				t.Fatal(err)
			}
			playDevice(t, dev)
			seed := int64(7919*j + i + 1)
			if err := dev.Reset(toSpec, "fresh", seed); err != nil {
				t.Fatal(err)
			}
			want, err := New(toSpec, "fresh", seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dev, want) {
				t.Fatalf("%s played, then Reset to %s: differs from New", from, to)
			}
			for k := 0; k < 1000; k++ {
				if a, b := dev.rng.Int63(), want.rng.Int63(); a != b {
					t.Fatalf("%s → %s: rng draw %d is %d after Reset, %d after New", from, to, k, a, b)
				}
			}
		}
	}
}

// TestResetRejectsInvalidSpecUnchanged checks Reset's error contract: an
// invalid spec fails, and the device is left exactly as it was.
func TestResetRejectsInvalidSpecUnchanged(t *testing.T) {
	r := mustRouter(t, flatSpec())
	upInterface(t, r, "eth0")
	r.WallPower()
	before, err := New(flatSpec(), "r1", 42)
	if err != nil {
		t.Fatal(err)
	}
	upInterface(t, before, "eth0")
	before.WallPower()
	bad := flatSpec()
	bad.PSUCount = 0
	if err := r.Reset(bad, "other", 1); err == nil {
		t.Fatal("Reset accepted a spec without PSUs")
	}
	if !reflect.DeepEqual(r, before) {
		t.Fatal("a failed Reset changed the device")
	}
}

// TestPortTableShared checks that devices with the same port count share
// one read-only port table, so a recycled or new device allocates no
// names, and that Handle and the name lookups agree with it.
func TestPortTableShared(t *testing.T) {
	a := mustRouter(t, flatSpec())
	b := mustRouter(t, flatSpec())
	if a.ports != b.ports {
		t.Fatal("two devices of one port count hold separate port tables")
	}
	spec := flatSpec()
	if got, want := spec.PortNames(), a.InterfaceNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PortNames %v, InterfaceNames %v", got, want)
	}
	for i, name := range a.InterfaceNames() {
		h, err := a.Handle(name)
		if err != nil || int(h) != i {
			t.Fatalf("Handle(%s) = %d, %v; want %d", name, h, err, i)
		}
	}
	if _, err := a.Handle("eth08"); err == nil {
		t.Fatal("Handle resolved a name no port has")
	}
}
