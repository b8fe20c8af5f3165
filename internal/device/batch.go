package device

import (
	"fmt"
	"time"

	"fantasticjoules/internal/model"
	"fantasticjoules/internal/units"
)

// Hot-path batch API. The fleet simulator drives every router through the
// same tight loop — set offered load on each interface, advance the clock,
// sample wall power — tens of thousands of times per replay. The
// name-keyed methods (SetTraffic, InterfaceState) pay a map lookup and a
// mutex round-trip per call; the handle API resolves each name to a dense
// index once, and a Step batches a whole simulation step under a single
// lock acquisition.

// Handle identifies one interface of one router by its dense port index.
// Resolve it once with Router.Handle; it stays valid until the router is
// Reset (the physical port set is fixed at New or Reset — config events
// change what is plugged into a port, never the port itself).
type Handle int

// Handle resolves an interface name to its handle.
func (r *Router) Handle(ifName string) (Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.ports.index[ifName]; ok {
		return Handle(i), nil
	}
	return -1, fmt.Errorf("device: %s has no interface %q", r.name, ifName)
}

// valid reports whether h indexes an interface; hot-path methods use it to
// fail loudly on programmer error instead of constructing errors.
func (r *Router) valid(h Handle) bool { return h >= 0 && int(h) < len(r.interfaces) }

// setTrafficLocked is the validation core shared by SetTraffic,
// SetTrafficAt, and Step.SetTraffic. Callers hold r.mu. The success path
// constructs nothing.
func (r *Router) setTrafficLocked(itf *Interface, bits units.BitRate, packets units.PacketRate) error {
	if bits < 0 || packets < 0 {
		return fmt.Errorf("device: negative traffic on %s", itf.name)
	}
	if (bits > 0 || packets > 0) && !itf.OperUp() {
		return fmt.Errorf("device: interface %s is down, cannot carry traffic", itf.name)
	}
	if bits > itf.speed*2 {
		return fmt.Errorf("device: %s offered %v exceeds 2×%v line rate", itf.name, bits, itf.speed)
	}
	itf.bits = bits
	itf.packets = packets
	return nil
}

// SetTrafficAt is SetTraffic addressed by handle: no map lookup, and no
// allocation on the success path. An out-of-range handle panics — handles
// come from Handle, so that is a caller bug, not an input condition.
func (r *Router) SetTrafficAt(h Handle, bits units.BitRate, packets units.PacketRate) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.valid(h) {
		panic(fmt.Sprintf("device: %s has no interface handle %d", r.name, h))
	}
	return r.setTrafficLocked(&r.interfaces[h], bits, packets)
}

// InterfaceStateAt is InterfaceState addressed by handle: no map lookup
// and no error return. An out-of-range handle panics.
func (r *Router) InterfaceStateAt(h Handle) (present, adminUp, operUp bool, key model.ProfileKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.valid(h) {
		panic(fmt.Sprintf("device: %s has no interface handle %d", r.name, h))
	}
	itf := &r.interfaces[h]
	return itf.transceiverPresent, itf.adminUp, itf.OperUp(), itf.ProfileKey()
}

// Step is a single-owner batch view of a router: BeginStep acquires the
// router's lock once, the Step methods run lock-free on the already-held
// lock, and End releases it. Between BeginStep and End the caller owns the
// router exclusively — calling any locking Router method (including
// meter reads, which sample WallPower through the router) deadlocks, so
// End the step before handing the router to anything else. A Step is a
// value; passing it around copies only the router pointer.
type Step struct {
	r *Router
}

// BeginStep locks the router and returns the batch view.
//
//joules:hotpath
func (r *Router) BeginStep() Step {
	r.mu.Lock()
	return Step{r: r}
}

// End releases the router. The Step must not be used afterwards.
//
//joules:hotpath
func (s Step) End() { s.r.mu.Unlock() }

// SetTraffic sets the offered load on the interface with the given handle.
//
//joules:hotpath
func (s Step) SetTraffic(h Handle, bits units.BitRate, packets units.PacketRate) error {
	if !s.r.valid(h) {
		panic(fmt.Sprintf("device: %s has no interface handle %d", s.r.name, h))
	}
	return s.r.setTrafficLocked(&s.r.interfaces[h], bits, packets)
}

// InterfaceState returns the present/admin/oper state of the interface
// with the given handle.
//
//joules:hotpath
func (s Step) InterfaceState(h Handle) (present, adminUp, operUp bool) {
	if !s.r.valid(h) {
		panic(fmt.Sprintf("device: %s has no interface handle %d", s.r.name, h))
	}
	itf := &s.r.interfaces[h]
	return itf.transceiverPresent, itf.adminUp, itf.OperUp()
}

// WallPower samples the true wall power within the batch (one jitter draw,
// exactly as Router.WallPower).
//
//joules:hotpath
func (s Step) WallPower() units.Power { return s.r.wallPowerLocked() }

// Advance moves the simulation clock within the batch.
//
//joules:hotpath
func (s Step) Advance(dt time.Duration) time.Time { return s.r.advanceLocked(dt) }
