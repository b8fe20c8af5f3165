package ispnet

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/meter"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/units"
)

// FleetOp names a declarative deployment mutation. Declarative events —
// unlike the closure-based scheduledEvent they compile into — can be
// stored, merged, re-sorted, and re-resolved against freshly rebuilt
// routers, which is what makes incremental replay possible: a dirty
// router is copied pristine from the fleet's pristine network (no
// fleet-wide Build) and its event queue recompiled against the copy and
// the device its shard materializes.
type FleetOp string

const (
	// OpAdminDown / OpAdminUp toggle an interface's admin state; the
	// transceiver stays plugged.
	OpAdminDown FleetOp = "admin-down"
	OpAdminUp   FleetOp = "admin-up"
	// OpLinkDown / OpLinkUp toggle an interface's link (carrier) state.
	OpLinkDown FleetOp = "link-down"
	OpLinkUp   FleetOp = "link-up"
	// OpUnplug admin-downs the interface, removes it from the deployment
	// records, and unplugs its transceiver (the Fig. 4a removal).
	OpUnplug FleetOp = "unplug"
	// OpAddInterfaces brings Count additional DAC interfaces up on free
	// ports, cloned from the router's template DAC.
	OpAddInterfaces FleetOp = "add-interfaces"
	// OpPowerCycle power-cycles the PSU at index PSU (the Fig. 4b meter
	// installation).
	OpPowerCycle FleetOp = "power-cycle"
	// OpScaleLoad multiplies every deployed interface's mean offered load
	// by Factor — the perturbation the optimizer's what-if loop uses.
	OpScaleLoad FleetOp = "scale-load"
	// OpSleep / OpWake are the optimizer's actuation ops: admin-down /
	// admin-up an interface to stop paying its Pport and Ptrx,up (the
	// transceiver stays plugged, so Ptrx,in keeps accruing — §7's refined
	// accounting). Unlike the strict OpAdmin* ops they are best-effort:
	// actuating an interface the deployment no longer has (e.g. a
	// transceiver unplugged by a later-merged schedule) is a no-op, so a
	// decision trace stays replayable against any deployment history.
	OpSleep FleetOp = "sleep"
	OpWake  FleetOp = "wake"
	// OpPSUOffline / OpPSUOnline take the PSU at index PSU out of or back
	// into the load-sharing pool (the §9.3.4 single-PSU measure). Taking
	// the last online PSU offline fails the replay, exactly as the device
	// refuses it.
	OpPSUOffline FleetOp = "psu-offline"
	OpPSUOnline  FleetOp = "psu-online"
)

// FleetEvent is one declarative deployment event. Zero-valued fields that
// an op does not use are ignored; Desc overrides the generated
// description when set.
type FleetEvent struct {
	At     time.Time
	Router string
	Op     FleetOp
	Iface  string  // OpAdmin*/OpLink*/OpUnplug
	Count  int     // OpAddInterfaces
	PSU    int     // OpPowerCycle
	Factor float64 // OpScaleLoad
	Desc   string
}

// describe returns the event-log description: Desc verbatim when set,
// otherwise a deterministic rendering of the op.
func (e FleetEvent) describe() string {
	if e.Desc != "" {
		return e.Desc
	}
	switch e.Op {
	case OpAdminDown, OpAdminUp, OpLinkDown, OpLinkUp, OpUnplug, OpSleep, OpWake:
		return fmt.Sprintf("%s %s", e.Op, e.Iface)
	case OpAddInterfaces:
		return fmt.Sprintf("%s x%d", e.Op, e.Count)
	case OpPowerCycle, OpPSUOffline, OpPSUOnline:
		return fmt.Sprintf("%s psu%d", e.Op, e.PSU)
	case OpScaleLoad:
		return fmt.Sprintf("%s x%g", e.Op, e.Factor)
	}
	return string(e.Op)
}

// validate rejects events that could not compile: unknown ops and
// missing operands. Router existence is checked at compile time against
// the network.
func (e FleetEvent) validate() error {
	switch e.Op {
	case OpAdminDown, OpAdminUp, OpLinkDown, OpLinkUp, OpUnplug, OpSleep, OpWake:
		if e.Iface == "" {
			return fmt.Errorf("ispnet: event %s on %s: missing interface", e.Op, e.Router)
		}
	case OpAddInterfaces:
		if e.Count <= 0 {
			return fmt.Errorf("ispnet: event %s on %s: count must be positive", e.Op, e.Router)
		}
	case OpPowerCycle, OpPSUOffline, OpPSUOnline:
		if e.PSU < 0 {
			return fmt.Errorf("ispnet: event %s on %s: negative PSU index", e.Op, e.Router)
		}
	case OpScaleLoad:
		if e.Factor <= 0 {
			return fmt.Errorf("ispnet: event %s on %s: factor must be positive", e.Op, e.Router)
		}
	default:
		return fmt.Errorf("ispnet: unknown event op %q on %s", e.Op, e.Router)
	}
	if e.Router == "" {
		return fmt.Errorf("ispnet: event %s: missing router", e.Op)
	}
	return nil
}

// hasInterface reports whether the router's current deployment still has
// an interface by that name. Evaluated at apply time, so a sleep/wake
// schedule recorded against one deployment replays cleanly against a
// deployment that has since unplugged or retired the interface.
func hasInterface(r *Router, name string) bool {
	for i := range r.Interfaces {
		if r.Interfaces[i].Name == name {
			return true
		}
	}
	return false
}

// sortFleetEvents orders a declarative schedule by due time. Stable, so
// events due at the same instant keep their append order — the apply
// order the simulation guarantees at every step.
func sortFleetEvents(evs []FleetEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
}

func describeFleetEvents(evs []FleetEvent) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = Event{Time: e.At, Router: e.Router, Description: e.describe()}
	}
	return out
}

// compileEvent binds one validated event to router r and the device dev
// its shard materialized. Compile each replay: the closures must capture
// the *Router being played and the device playing it.
func compileEvent(r *Router, dev *device.Router, e FleetEvent) scheduledEvent {
	var apply func() error
	switch e.Op {
	case OpAdminDown:
		apply = func() error { return dev.SetAdmin(e.Iface, false) }
	case OpAdminUp:
		apply = func() error { return dev.SetAdmin(e.Iface, true) }
	case OpLinkDown:
		apply = func() error { return dev.SetLink(e.Iface, false) }
	case OpLinkUp:
		apply = func() error { return dev.SetLink(e.Iface, true) }
	case OpUnplug:
		apply = func() error {
			if err := dev.SetAdmin(e.Iface, false); err != nil {
				return err
			}
			dropInterface(r, e.Iface)
			return dev.UnplugTransceiver(e.Iface)
		}
	case OpSleep:
		apply = func() error {
			if !hasInterface(r, e.Iface) {
				return nil
			}
			return dev.SetAdmin(e.Iface, false)
		}
	case OpWake:
		apply = func() error {
			if !hasInterface(r, e.Iface) {
				return nil
			}
			return dev.SetAdmin(e.Iface, true)
		}
	case OpAddInterfaces:
		apply = func() error { return addInterfaces(r, dev, e.Count) }
	case OpPowerCycle:
		apply = func() error { return dev.PowerCycle(e.PSU) }
	case OpPSUOffline:
		apply = func() error { return dev.SetPSUOnline(e.PSU, false) }
	case OpPSUOnline:
		apply = func() error { return dev.SetPSUOnline(e.PSU, true) }
	case OpScaleLoad:
		apply = func() error {
			for i := range r.Interfaces {
				if r.Interfaces[i].Spare {
					continue
				}
				r.Interfaces[i].MeanLoad = units.BitRate(r.Interfaces[i].MeanLoad.BitsPerSecond() * e.Factor)
				// Hierarchical loads are evaluated from the per-cohort
				// demand, not MeanLoad; scale both so the op means the
				// same thing on generated fleets (SubDemand is all-zero
				// on the calibrated build, where this is a no-op).
				for c := range r.Interfaces[i].SubDemand {
					r.Interfaces[i].SubDemand[c] *= e.Factor
				}
			}
			return nil
		}
	}
	return scheduledEvent{at: e.At, desc: e.describe(), apply: apply}
}

// Fleet is the retained-state form of Simulate. It keeps the built
// network, the per-router replay results, and the merged event schedule,
// so that after Perturb only the routers named by the new events — the
// dirty set — are rebuilt and replayed; every clean router's results are
// spliced back into the dataset untouched. Resimulate is bit-identical to
// a cold SimulateWithEvents over the same merged event list (the golden
// and property tests pin this), because:
//
//   - every router's replay is already independent (shards share no
//     mutable state, per-router rng streams are seeded by fleet index),
//   - a dirty router is replayed from a clone of its pristine form — its
//     deployment as Build left it, which no replay mutates — on a device
//     its shard materializes from the model and the fleet-index seed,
//     exactly as a cold run's shard does (blueprint_test.go pins the
//     device against device.New),
//   - the PSU snapshot is captured inside each shard's replay, so clean
//     routers' rng streams are never re-advanced,
//   - the one fold runs over the full router list in fleet order,
//     whether a router was replayed or restored, exactly as a cold run
//     folds it.
//
// The work of a Resimulate is O(dirty) except for that fold: it
// copies, recompiles and replays only the dirty routers, and merges the
// new events into a schedule it keeps sorted and described.
//
// Neither a Fleet's routers nor its retained shards hold a device: each
// shard materializes its router's device on one lent from the player's
// free list and returns it when it is folded, so the fleet's devices are
// that free list — bounded by the pipeline's window — kept for the next
// Resimulate.
//
// Resimulate is transactional: the rebuilt routers, their replay results
// and the new dataset are staged and committed together with the schedule
// only when the whole replay succeeds. A failed Resimulate drops the
// pending events and leaves the fleet as it was.
//
// A Fleet is not safe for concurrent use.
type Fleet struct {
	cfg Config
	net *Network
	// pristine is the network as Build made it. No replay ever applies an
	// event to one of its routers: a router is played in place only while
	// it has no events, and otherwise on a clone of its pristine router,
	// so net shares the pristine routers no event has touched. Pristine
	// exposes it read-only.
	pristine *Network

	// grid is the window's step grid, built once: every replay reads its
	// multipliers, and its nanosecond column keys every retained chunk.
	grid     *stepGrid
	capacity units.BitRate
	// index maps router name → fleet index, the slot of its retention and
	// the key of its device seed.
	index map[string]int
	// meterSeeds maps instrumented router name → external-meter seed,
	// captured once (the AutopowerRouters order of the pristine build).
	meterSeeds map[string]int64

	// base is the built-in schedule resolved against the pristine build
	// and sorted; it must never be regenerated from the retained (mutated)
	// network.
	base []FleetEvent
	// extra accumulates every committed perturbation in Perturb order, so
	// a cold SimulateWithEvents(cfg, extra) reproduces the current state.
	extra []FleetEvent
	// pending holds the perturbations queued since the last Resimulate.
	pending []FleetEvent
	// byRouter is the committed merged schedule split per router, each in
	// schedule order; described is the whole schedule's event log. Both
	// are replaced, never mutated, so datasets may share described.
	byRouter  map[string][]FleetEvent
	described []Event

	// Retention, by fleet index, in the form chunked selects (see
	// fleet_chunks.go); the other slice holds only zero values.
	shards  []*routerShard
	chunked bool
	chunks  []routerChunks
	// player is the replay pipeline; its free list of step buffers
	// outlives every Resimulate. scratch is the chunk decode buffer.
	player  player
	scratch *timeseries.Series

	ds *Dataset
}

// clone returns a copy of r that owns its interface list, so events
// applied to the copy leave r as it is.
func (r *Router) clone() *Router {
	c := *r
	c.Interfaces = slices.Clone(r.Interfaces)
	return &c
}

// share returns a network that shares n's routers but owns its router
// list and name index, so routers can be replaced in it without touching
// n.
func (n *Network) share() *Network {
	c := *n
	c.Routers = slices.Clone(n.Routers)
	c.byName = maps.Clone(n.byName)
	return &c
}

// replayJob is one router staged for replay: its fleet index, the router
// object to play (a copy of its pristine router, or the built router on
// a cold run and the first Fleet play), its merged schedule, and its
// external meter (nil unless instrumented).
type replayJob struct {
	idx    int
	router *Router
	sched  []FleetEvent
	meter  *meter.Meter
}

// stagedReplay is a replay's output before commit: the new dataset plus
// the retention of the replayed routers, by job, in the form retain
// stages.
type stagedReplay struct {
	ds     *Dataset
	shards []*routerShard
	chunks []routerChunks
}

// NewFleet builds the network and plays the full study window once,
// retaining every router's results for later incremental replays.
func NewFleet(cfg Config) (*Fleet, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	base, byRouter, err := n.schedule(nil)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:        n.Config, // defaults applied by Build
		net:        n.share(),
		pristine:   n,
		grid:       n.stepGrid(),
		capacity:   n.totalCapacity(),
		index:      make(map[string]int, len(n.Routers)),
		meterSeeds: n.meterSeeds(),
		base:       base,
		byRouter:   byRouter,
		described:  describeFleetEvents(base),
		shards:     make([]*routerShard, len(n.Routers)),
		chunks:     make([]routerChunks, len(n.Routers)),
		player:     player{workers: n.Config.Workers},
		scratch:    timeseries.New("chunk-splice"),
	}
	for i, r := range n.Routers {
		f.index[r.Name] = i
	}
	// Generated hierarchical fleets retain encoded chunks instead of live
	// shards (fleet_chunks.go): they carry no instrumented routers, and at
	// 10k+ routers the live-shard working set would not fit a bounded
	// heap. The calibrated build keeps the shard path and its traces.
	f.chunked = n.Hierarchical() && len(f.meterSeeds) == 0
	metricRuns.Inc()

	jobs := f.net.jobs(byRouter, f.meterSeeds)
	for k := range jobs {
		if len(jobs[k].sched) > 0 {
			jobs[k].router = jobs[k].router.clone()
		}
	}
	st, err := f.replay(jobs, f.described)
	if err != nil {
		return nil, err
	}
	f.commit(jobs, st)
	return f, nil
}

// ChunkRetained reports whether the fleet runs in the bounded-memory
// chunk-retained mode (hierarchical configs) rather than retaining live
// shards.
func (f *Fleet) ChunkRetained() bool { return f.chunked }

// Dataset returns the dataset of the last successful (re)simulation. The
// caller must treat it as immutable; Resimulate replaces it.
func (f *Fleet) Dataset() *Dataset { return f.ds }

// Network returns the retained network. Mutating it outside Perturb
// voids the bit-identity guarantee.
func (f *Fleet) Network() *Network { return f.net }

// Pristine returns the network as Build made it, before any event —
// built-in or perturbed — was applied: the fleet replays dirty routers
// from copies of its routers. The caller must treat it as read-only.
func (f *Fleet) Pristine() *Network { return f.pristine }

// ExtraEvents returns a copy of every perturbation applied since the
// fleet was built (the schedule beyond the built-in base events), pending
// ones included. After a Resimulate, a cold
// SimulateWithEvents(cfg, ExtraEvents()...) reproduces the current
// dataset bit for bit.
func (f *Fleet) ExtraEvents() []FleetEvent {
	out := make([]FleetEvent, 0, len(f.extra)+len(f.pending))
	out = append(out, f.extra...)
	return append(out, f.pending...)
}

// Perturb queues declarative events and marks their routers dirty. The
// events take effect at the next Resimulate; nothing is replayed here.
// An event batch is validated as a whole before any of it is queued.
func (f *Fleet) Perturb(events ...FleetEvent) error {
	for _, e := range events {
		if err := e.validate(); err != nil {
			return err
		}
		if _, ok := f.index[e.Router]; !ok {
			return fmt.Errorf("ispnet: perturb: unknown router %q", e.Router)
		}
	}
	f.pending = append(f.pending, events...)
	return nil
}

// Resimulate replays the dirty routers against the merged event schedule
// and splices their fresh results into the retained dataset. With no
// pending perturbations it returns the current dataset unchanged. On
// error the pending perturbations are dropped and the fleet — dataset,
// network, retention and schedule — stays as the last successful
// Resimulate left it.
func (f *Fleet) Resimulate() (*Dataset, error) {
	if len(f.pending) == 0 {
		return f.ds, nil
	}
	pending := f.pending
	f.pending = nil

	// The batch in schedule order: a stable sort, so it merges after the
	// committed events due at the same instant, as a stable sort of the
	// whole schedule would place it.
	batch := append([]FleetEvent(nil), pending...)
	sortFleetEvents(batch)
	perRouter := splitByRouter(batch)
	dirty := make([]int, 0, len(perRouter))
	for name := range perRouter {
		dirty = append(dirty, f.index[name])
	}
	sort.Ints(dirty)

	jobs := make([]replayJob, len(dirty))
	for k, i := range dirty {
		r := f.pristine.Routers[i].clone()
		sched := mergeByTime(f.byRouter[r.Name], perRouter[r.Name], fleetEventAt)
		jobs[k] = newJob(i, r, sched, f.meterSeeds)
	}
	described := mergeByTime(f.described, describeFleetEvents(batch), eventTime)
	st, err := f.replay(jobs, described)
	if err != nil {
		return nil, err
	}
	f.extra = append(f.extra, pending...)
	f.described = described
	f.commit(jobs, st)
	return f.ds, nil
}

// replay plays the jobs (in fleet order) and folds the fleet into a
// staged dataset and the replayed routers' staged retention. It modifies
// nothing the fleet retains.
func (f *Fleet) replay(jobs []replayJob, described []Event) (*stagedReplay, error) {
	st := &stagedReplay{shards: make([]*routerShard, len(jobs)), chunks: make([]routerChunks, len(jobs))}
	metricShardsReplayed.Add(uint64(len(jobs)))
	metricShardsReused.Add(uint64(len(f.net.Routers) - len(jobs)))
	ds, err := f.net.replay(&f.player, f.grid, jobs, f.capacity, described, f.restore,
		func(k int, sh *routerShard) (bool, error) { return f.retain(st, k, sh), nil })
	if err != nil {
		return nil, err
	}
	st.ds = ds
	return st, nil
}

// commit installs a successful replay: the replayed routers and their
// schedules, their retention, and the dataset. A replaced live shard's
// step columns go back to the pipeline's free list.
func (f *Fleet) commit(jobs []replayJob, st *stagedReplay) {
	delta := 0
	for k, j := range jobs {
		f.net.Routers[j.idx] = j.router
		f.net.byName[j.router.Name] = j.router
		if len(j.sched) > 0 {
			f.byRouter[j.router.Name] = j.sched
		}
		if old := f.shards[j.idx]; old != nil {
			f.player.free = append(f.player.free, old.power, old.traffic)
			old.power, old.traffic = nil, nil
		}
		f.shards[j.idx] = st.shards[k]
		delta += st.chunks[k].retainedBytes() - f.chunks[j.idx].retainedBytes()
		f.chunks[j.idx] = st.chunks[k]
	}
	metricFleetChunkBytes.Add(float64(delta))
	f.ds = st.ds
}

func fleetEventAt(e FleetEvent) time.Time { return e.At }
func eventTime(e Event) time.Time         { return e.Time }

// mergeByTime returns a new slice holding sorted with batch merged in by
// due time. Both inputs must be sorted; an element of batch lands after
// every element of sorted due at or before it, so the result equals a
// stable sort of sorted followed by batch — the order the cold path's
// sortFleetEvents gives the concatenated schedule.
func mergeByTime[T any](sorted, batch []T, at func(T) time.Time) []T {
	out := make([]T, 0, len(sorted)+len(batch))
	i := 0
	for _, e := range batch {
		t := at(e)
		k := i + sort.Search(len(sorted)-i, func(k int) bool { return at(sorted[i+k]).After(t) })
		out = append(out, sorted[i:k]...)
		out = append(out, e)
		i = k
	}
	return append(out, sorted[i:]...)
}
