package device

import (
	"math"
	"testing"
	"time"

	"fantasticjoules/internal/model"
	"fantasticjoules/internal/units"
)

// advanceAllPorts is the reference form of Advance: the same clock and
// thermal update, with counters accumulated by a walk over every
// physical port that skips the ones not operationally up. Advance walks
// only the cached oper-up list; the two must agree exactly.
func advanceAllPorts(r *Router, dt time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sec := dt.Seconds()
	if sec < 0 {
		sec = 0
	}
	if tau := r.spec.ThermalTimeConstant.Seconds(); tau > 0 && sec > 0 {
		target := r.temperature + r.spec.ThermalResistance*r.dcLoadLocked().Watts()
		alpha := 1 - math.Exp(-sec/tau)
		r.internalTemp += (target - r.internalTemp) * alpha
	}
	for i := range r.interfaces {
		itf := &r.interfaces[i]
		if !itf.OperUp() {
			continue
		}
		octets := itf.bits.BitsPerSecond() / 8 * sec / 2
		pkts := itf.packets.PacketsPerSecond() * sec / 2
		itf.inOctets += uint64(octets)
		itf.outOctets += uint64(octets)
		itf.inPackets += uint64(pkts)
		itf.outPackets += uint64(pkts)
	}
	r.clock = r.clock.Add(dt)
}

// TestAdvanceMatchesAllPortsWalk drives two identical routers through
// the same configuration events and offered loads, advancing one with
// Advance and the other with the all-ports reference, and requires every
// port's counters, the clock and the chassis temperature to agree after
// every step — across admin-down, unplug, link-down and their reversals,
// on a flat test spec and on a production spec with thermal coupling.
func TestAdvanceMatchesAllPortsWalk(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec func(t *testing.T) ModelSpec
		trx  model.TransceiverType
		bps  units.BitRate
	}{
		{"flat", func(*testing.T) ModelSpec { return flatSpec() }, model.PassiveDAC, 100 * g},
		{"8201-32FH", func(t *testing.T) ModelSpec {
			s, err := Spec("8201-32FH")
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, model.PassiveDAC, 100 * g},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec(t)
			got, err := New(spec, "r", 7)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(spec, "r", 7)
			if err != nil {
				t.Fatal(err)
			}
			names := got.InterfaceNames()
			if len(names) > 6 {
				names = names[:6]
			}
			both := func(f func(r *Router) error) {
				t.Helper()
				for _, r := range []*Router{got, want} {
					if err := f(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, name := range names {
				both(func(r *Router) error { return r.PlugTransceiver(name, tc.trx, tc.bps) })
				both(func(r *Router) error { return r.SetAdmin(name, true) })
				both(func(r *Router) error { return r.SetLink(name, true) })
			}
			events := []struct {
				desc  string
				apply func(r *Router) error
			}{
				{"initial", func(*Router) error { return nil }},
				{"admin-down " + names[1], func(r *Router) error { return r.SetAdmin(names[1], false) }},
				{"unplug " + names[2], func(r *Router) error { return r.UnplugTransceiver(names[2]) }},
				{"link-down " + names[3], func(r *Router) error { return r.SetLink(names[3], false) }},
				{"admin-up " + names[1], func(r *Router) error { return r.SetAdmin(names[1], true) }},
				{"replug " + names[2], func(r *Router) error { return r.PlugTransceiver(names[2], tc.trx, tc.bps) }},
				{"link-up " + names[3], func(r *Router) error { return r.SetLink(names[3], true) }},
			}
			for ei, ev := range events {
				both(ev.apply)
				for step := 0; step < 4; step++ {
					for i, name := range names {
						bits := units.BitRate(float64(i+1) * 1.7e9 * float64(step+ei+1))
						pkts := units.PacketRate(bits.BitsPerSecond() / 2824)
						_, _, oper, _, err := got.InterfaceState(name)
						if err != nil {
							t.Fatal(err)
						}
						if !oper {
							continue
						}
						both(func(r *Router) error { return r.SetTraffic(name, bits, pkts) })
					}
					got.Advance(5 * time.Minute)
					advanceAllPorts(want, 5*time.Minute)
					if !got.Now().Equal(want.Now()) {
						t.Fatalf("%s step %d: clock %v, want %v", ev.desc, step, got.Now(), want.Now())
					}
					if a, b := got.InternalTemperature(), want.InternalTemperature(); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s step %d: temperature %v, want %v", ev.desc, step, a, b)
					}
					for _, name := range got.InterfaceNames() {
						a, err := got.CountersOf(name)
						if err != nil {
							t.Fatal(err)
						}
						b, err := want.CountersOf(name)
						if err != nil {
							t.Fatal(err)
						}
						if a != b {
							t.Fatalf("%s step %d: %s counters %+v, want %+v", ev.desc, step, name, a, b)
						}
					}
				}
			}
			// The walk must have counted something, or the comparison
			// above proves nothing.
			c, err := got.CountersOf(names[0])
			if err != nil {
				t.Fatal(err)
			}
			if c.InOctets == 0 || c.InPackets == 0 {
				t.Fatalf("%s counted no traffic: %+v", names[0], c)
			}
		})
	}
}
