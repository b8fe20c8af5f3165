package ispnet

import (
	"fmt"
	"sort"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/meter"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/units"
)

// Event is a notable occurrence in the simulated deployment, mirroring the
// events the paper reads out of its traces (§6.2).
type Event struct {
	Time        time.Time
	Router      string
	Description string
}

// Dataset is the collected measurement data of one simulation run — the
// synthetic stand-in for the paper's published dataset.
type Dataset struct {
	// Network is the fleet that produced the data.
	Network *Network

	// TotalPower is the network-wide wall power at the SNMP step (Fig. 1,
	// top series).
	TotalPower *timeseries.Series
	// TotalTraffic is the network-wide carried traffic in bit/s (Fig. 1,
	// bottom series; each link counted once).
	TotalTraffic *timeseries.Series
	// TotalCapacity is the summed interface capacity (for the Fig. 1
	// percent axis).
	TotalCapacity units.BitRate

	// RouterWallMedian is each router's median wall power over the window
	// (Table 1 input).
	RouterWallMedian map[string]units.Power
	// RouterWallPeak is each router's peak wall power over the window —
	// the provisioning figure the §9.3.4 PSU-shedding decision sizes
	// against (a PSU may only go offline if the survivors cover the peak,
	// not the median).
	RouterWallPeak map[string]units.Power

	// Autopower holds the external meter traces of the instrumented
	// routers, keyed by router name.
	Autopower map[string]*timeseries.Series
	// SNMPPower holds the PSU-reported total power traces for the
	// instrumented routers; routers whose model reports nothing are
	// absent (the Fig. 4c case).
	SNMPPower map[string]*timeseries.Series
	// IfaceRates holds per-interface bidirectional bit-rate traces for
	// the instrumented routers (the traffic-counter view the power model
	// consumes), keyed by router then interface.
	IfaceRates map[string]map[string]*timeseries.Series
	// IfaceProfiles maps every interface that ever appeared on an
	// instrumented router during the run to its power profile — the
	// module inventory file of §6.2, robust to mid-run (un)plugging.
	IfaceProfiles map[string]map[string]model.ProfileKey

	// PSUSnapshots is the one-time environment-sensor export of every
	// active router (§9.2).
	PSUSnapshots []psu.RouterPSUs

	// Events lists the injected deployment events.
	Events []Event
}

// Simulate builds the network for the config and plays the study window,
// producing the dataset every analysis consumes. It is deterministic for a
// given config.
func Simulate(cfg Config) (*Dataset, error) {
	return SimulateWithEvents(cfg, nil)
}

// SimulateWithEvents is Simulate with extra deployment events merged into
// the built-in schedule. It is the cold-recompute reference for the
// incremental Fleet path: Perturb(extra)+Resimulate must reproduce it bit
// for bit.
func SimulateWithEvents(cfg Config, extra []FleetEvent) (*Dataset, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return n.RunWithEvents(extra)
}

// Run plays the study window over the already-built network.
//
// The replay is sharded by router: every router's timeline (its filtered
// events, its device advances, its wall samples and — when instrumented —
// its meter and rate traces) is played independently by a worker pool
// bounded by Config.Workers, then the per-shard results are reduced into
// the network-wide series in fixed fleet order. Because each shard owns
// all the state it touches and the reduction order never varies, the
// Dataset is bit-identical for every worker count, including the serial
// Workers=1 path.
func (n *Network) Run() (*Dataset, error) {
	return n.RunWithEvents(nil)
}

// RunWithEvents plays the study window with extra declarative events
// merged into the built-in schedule. The network must be freshly built:
// events mutate routers, so a second Run over the same network replays a
// different deployment.
func (n *Network) RunWithEvents(extra []FleetEvent) (*Dataset, error) {
	metricRuns.Inc()
	run, err := n.prepareRun(extra)
	if err != nil {
		return nil, err
	}
	// Shard the fleet: one worker plays one router's full timeline.
	shards := make([]*routerShard, len(n.Routers))
	for i, r := range n.Routers {
		shards[i] = run.shard(r)
	}
	if err := playShards(shards, n.Config.Workers, nil); err != nil {
		return nil, err
	}
	return n.assembleDataset(run.grid, shards, describeFleetEvents(run.evs), run.capacity), nil
}

// coldRun is what a replay of a freshly built network needs before any
// shard plays; Run and RunStream share it.
type coldRun struct {
	n    *Network
	grid *stepGrid
	// capacity is a deployment property of the pristine build: scheduled
	// events change what is up, not what was provisioned.
	capacity units.BitRate
	// meters holds one external meter per instrumented router, by name.
	meters map[string]*meter.Meter
	// evs is the sorted schedule (built-in plus extra); byRouter is it
	// compiled and split per router.
	evs      []FleetEvent
	byRouter map[string][]scheduledEvent
}

// prepareRun builds the step grid, attaches the meters and compiles the
// schedule for a cold replay.
func (n *Network) prepareRun(extra []FleetEvent) (*coldRun, error) {
	run := &coldRun{
		n:        n,
		grid:     n.stepGrid(),
		capacity: n.totalCapacity(),
		meters:   make(map[string]*meter.Meter),
	}
	// Meter seeds depend only on the instrumentation order, never on
	// worker scheduling.
	for i, r := range n.AutopowerRouters() {
		m := meter.New(n.meterSeed(i))
		if err := m.Attach(0, r.Device); err != nil {
			return nil, err
		}
		run.meters[r.Name] = m
	}
	run.evs = append(n.baseEvents(), extra...)
	sortFleetEvents(run.evs)
	compiled, err := n.compileEvents(run.evs)
	if err != nil {
		return nil, err
	}
	run.byRouter = partitionEvents(compiled)
	return run, nil
}

// shard wires router r's replay unit for the run.
func (run *coldRun) shard(r *Router) *routerShard {
	return run.n.newShard(r, run.meters[r.Name], run.byRouter[r.Name], run.grid)
}

// totalCapacity sums the provisioned (non-spare) interface capacity, each
// link counted once. Must be taken on the pristine build, before events
// mutate interface lists.
func (n *Network) totalCapacity() units.BitRate {
	var c units.BitRate
	for _, r := range n.Routers {
		for _, itf := range r.Interfaces {
			if !itf.Spare {
				c += itf.Profile.Speed / 2
			}
		}
	}
	return c
}

// meterSeed derives the external-meter seed for the i-th instrumented
// router (AutopowerRouters order). The formula is part of the dataset's
// determinism contract: an incremental replay must recreate the exact
// meter a cold run would have attached.
func (n *Network) meterSeed(i int) int64 {
	return n.Config.Seed + int64(i) + 1000
}

// newShard wires one router's replay unit.
func (n *Network) newShard(r *Router, m *meter.Meter, evs []scheduledEvent, grid *stepGrid) *routerShard {
	return &routerShard{
		net:    n,
		router: r,
		meter:  m,
		events: evs,
		grid:   grid,
		snapAt: n.Config.Start.Add(n.Config.Duration / 2),
	}
}

// foldBlock is how many steps assembleDataset sums per pass over the
// shards: two blocks of totals fit in a few KB of stack, so the fold
// allocates nothing beyond the output series.
const foldBlock = 512

// assembleDataset reduces played shards into the network-wide dataset in
// fixed fleet order, so the result is bit-identical for every worker
// count — and for any replayed/reused shard mix in the incremental path.
//
// The totals fold shard-major, one block of steps at a time, and append
// each finished block to the output series. Every step's sum still starts
// at 0 and adds the shards in fleet order (a router contributes exactly 0
// while undeployed), so the floating-point result is the same as a
// step-major loop's — and the same as the stream and chunk folds'.
func (n *Network) assembleDataset(g *stepGrid, shards []*routerShard, events []Event, capacity units.BitRate) *Dataset {
	ds := newDataset(n, len(g.nanos), capacity, events)
	var power, traffic [foldBlock]float64
	for lo := 0; lo < len(g.nanos); lo += foldBlock {
		hi := min(lo+foldBlock, len(g.nanos))
		p, tr := power[:hi-lo], traffic[:hi-lo]
		clear(p)
		clear(tr)
		for _, sh := range shards {
			for i, v := range sh.power[lo:hi] {
				p[i] += v
			}
			for i, v := range sh.traffic[lo:hi] {
				tr[i] += v
			}
		}
		ds.TotalPower.AppendBlock(g.nanos[lo:hi], p)
		ds.TotalTraffic.AppendBlock(g.nanos[lo:hi], tr)
	}
	for _, sh := range shards {
		ds.addShard(sh)
	}
	return ds
}

// newDataset returns an empty dataset with its total series sized for
// steps points — the starting point of every fold.
func newDataset(n *Network, steps int, capacity units.BitRate, events []Event) *Dataset {
	return &Dataset{
		Network:          n,
		TotalPower:       timeseries.NewWithCap("total-power", steps),
		TotalTraffic:     timeseries.NewWithCap("total-traffic", steps),
		TotalCapacity:    capacity,
		RouterWallMedian: make(map[string]units.Power),
		RouterWallPeak:   make(map[string]units.Power),
		Autopower:        make(map[string]*timeseries.Series),
		SNMPPower:        make(map[string]*timeseries.Series),
		IfaceRates:       make(map[string]map[string]*timeseries.Series),
		IfaceProfiles:    make(map[string]map[string]model.ProfileKey),
		Events:           events,
	}
}

// addShard records a played shard's per-router results: its
// instrumented traces, then what addRouter records.
func (ds *Dataset) addShard(sh *routerShard) {
	r := sh.router
	if sh.meter != nil {
		ds.Autopower[r.Name] = sh.autopower
		ds.IfaceRates[r.Name] = sh.rates
		ds.IfaceProfiles[r.Name] = sh.profiles
		if sh.snmp != nil {
			ds.SNMPPower[r.Name] = sh.snmp
		}
	}
	ds.addRouter(r, sh.stats, sh.psus)
}

// addRouter records a router's wall stats and its one-time PSU sensor
// export (§9.2: a snapshot, not a trace — the SNMP data only carries
// Pin). The shard captures the snapshot at the end of its replay, so the
// per-router rng stream is advanced identically whether the shard was
// replayed cold or spliced back from a retained fleet. Callers add
// routers in fleet order, which orders PSUSnapshots.
func (ds *Dataset) addRouter(r *Router, w wallStats, psus []psu.Snapshot) {
	if w.ok {
		ds.RouterWallMedian[r.Name] = units.Power(w.median)
		ds.RouterWallPeak[r.Name] = units.Power(w.peak)
	}
	if psus != nil {
		ds.PSUSnapshots = append(ds.PSUSnapshots, psu.RouterPSUs{
			Router: r.Name,
			Model:  r.Device.Model(),
			PSUs:   psus,
		})
	}
}

// scheduledEvent is an event with its mutation.
type scheduledEvent struct {
	at     time.Time
	desc   string
	router string
	apply  func() error
}

// baseEvents returns the built-in Fig. 4 schedule as declarative
// FleetEvents. The interface names are resolved from the network's current
// deployment, so the schedule must be generated from the pristine build
// (Fleet retains it from NewFleet for exactly that reason: after a replay
// the FR4 is already unplugged and would no longer resolve).
func (n *Network) baseEvents() []FleetEvent {
	start := n.Config.Start
	var evs []FleetEvent
	day := func(d int) time.Time { return start.Add(time.Duration(d) * 24 * time.Hour) }

	for _, r := range n.AutopowerRouters() {
		switch r.Device.Model() {
		case "8201-32FH":
			// Fig. 4a. Find the FR4 interfaces and a mid-list DAC.
			var fr4, dac string
			for _, itf := range r.Interfaces {
				if itf.Profile.Transceiver == "FR4" && fr4 == "" && !itf.Spare {
					fr4 = itf.Name
				}
				if itf.Profile.Transceiver == "Passive DAC" && !itf.Spare {
					dac = itf.Name
				}
			}
			if fr4 != "" {
				evs = append(evs, FleetEvent{
					At: day(38), Router: r.Name, Op: OpUnplug, Iface: fr4,
					Desc: "400G FR4 interface removed (transceiver unplugged); ≈13 W drop",
				})
			}
			if dac != "" {
				evs = append(evs, FleetEvent{
					At: day(51), Router: r.Name, Op: OpAdminDown, Iface: dac,
					Desc: "flapping interface taken down for repair; transceiver stays plugged",
				})
				evs = append(evs, FleetEvent{
					At: day(54), Router: r.Name, Op: OpAdminUp, Iface: dac,
					Desc: "repaired interface brought back up",
				})
			}
			evs = append(evs, FleetEvent{
				At: day(60), Router: r.Name, Op: OpAddInterfaces, Count: 2,
				Desc: "two interfaces added",
			})
		case "NCS-55A1-24H":
			// Fig. 4b: installing the Autopower meter power-cycles each
			// PSU; the pseudo-constant sensor re-baselines ≈7 W lower.
			evs = append(evs, FleetEvent{
				At: day(24), Router: r.Name, Op: OpPowerCycle, PSU: 0,
				Desc: "Autopower meter installed: PSUs power-cycled, one sensor re-baselines",
			})
		}
	}
	return evs
}

// scheduleEvents compiles the built-in schedule against the current
// network. Kept as the one-call form the schedule tests exercise.
func (n *Network) scheduleEvents() []scheduledEvent {
	evs := n.baseEvents()
	sortFleetEvents(evs)
	compiled, err := n.compileEvents(evs)
	if err != nil {
		// Unreachable: the built-in schedule only references routers and
		// ops this network owns.
		panic(err)
	}
	return compiled
}

// sortSchedule orders a schedule by due time. The sort is stable: events
// due at the same instant keep their schedule (append) order, which
// partitionEvents preserves per router — the apply order the simulation
// guarantees at every step.
func sortSchedule(evs []scheduledEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
}

// dropInterface removes an interface from the deployment records and
// retires its port.
func (n *Network) dropInterface(r *Router, ifName string) {
	if r.retired == nil {
		r.retired = make(map[string]bool)
	}
	r.retired[ifName] = true
	for i := range r.Interfaces {
		if r.Interfaces[i].Name == ifName {
			r.Interfaces = append(r.Interfaces[:i], r.Interfaces[i+1:]...)
			return
		}
	}
}

// addInterfaces brings up additional DAC interfaces on free ports.
func (n *Network) addInterfaces(r *Router, count int) error {
	used := make(map[string]bool)
	for _, itf := range r.Interfaces {
		used[itf.Name] = true
	}
	var tmplProfile *Interface
	for i := range r.Interfaces {
		if !r.Interfaces[i].Spare && r.Interfaces[i].Profile.Transceiver == "Passive DAC" {
			tmplProfile = &r.Interfaces[i]
			break
		}
	}
	if tmplProfile == nil {
		return fmt.Errorf("no template interface on %s", r.Name)
	}
	added := 0
	for _, name := range r.Device.InterfaceNames() {
		if added == count {
			break
		}
		if used[name] || r.retired[name] {
			continue
		}
		if err := r.Device.PlugTransceiver(name, tmplProfile.Profile.Transceiver, tmplProfile.Profile.Speed); err != nil {
			return err
		}
		if err := r.Device.SetAdmin(name, true); err != nil {
			return err
		}
		if err := r.Device.SetLink(name, true); err != nil {
			return err
		}
		r.Interfaces = append(r.Interfaces, Interface{
			Name:     name,
			Profile:  tmplProfile.Profile,
			MeanLoad: tmplProfile.MeanLoad,
		})
		added++
	}
	if added < count {
		return fmt.Errorf("only %d free ports on %s", added, r.Name)
	}
	return nil
}

// SimulateOSUpgrade reproduces the Fig. 8 scenario in isolation: an
// 8201-32FH running for four weeks with an OS upgrade at the midpoint
// whose new temperature management raises fan speeds by ≈45 W. It returns
// the PSU-reported power trace (with the sensor's constant offset — the
// trace the paper actually shows) and the upgrade time.
func SimulateOSUpgrade(seed int64) (*timeseries.Series, time.Time, error) {
	spec, err := device.Spec("8201-32FH")
	if err != nil {
		return nil, time.Time{}, err
	}
	dev, err := device.New(spec, "fig8-rtr", seed)
	if err != nil {
		return nil, time.Time{}, err
	}
	// Deploy a typical configuration.
	names := dev.InterfaceNames()
	for i := 0; i < 12; i++ {
		if err := dev.PlugTransceiver(names[i], "Passive DAC", 100*units.GigabitPerSecond); err != nil {
			return nil, time.Time{}, err
		}
		if err := dev.SetAdmin(names[i], true); err != nil {
			return nil, time.Time{}, err
		}
		if err := dev.SetLink(names[i], true); err != nil {
			return nil, time.Time{}, err
		}
	}
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	upgrade := start.Add(12 * 24 * time.Hour) // March 13
	series := timeseries.New("fig8")
	step := 30 * time.Minute
	for t := start; t.Before(start.Add(26 * 24 * time.Hour)); t = t.Add(step) {
		if t.Equal(upgrade) || (t.After(upgrade) && t.Add(-step).Before(upgrade)) {
			dev.UpgradeOS("7.11.1")
		}
		dev.Advance(step)
		if rep, err := dev.ReportedTotalPower(); err == nil {
			series.Append(t, rep.Watts())
		}
	}
	return series, upgrade, nil
}
