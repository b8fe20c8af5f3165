package ispnet

import (
	"fmt"
	"slices"
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
	return n.run(extra, nil)
}

// run plays the study window over a freshly built network, with extra
// events merged into the built-in schedule: every router is replayed by
// the pipeline and folded in fleet order, and with a sink its series
// spill to it as they are folded. The network must be fresh because
// events mutate routers: a second run replays a different deployment.
func (n *Network) run(extra []FleetEvent, sink SeriesSink) (*Dataset, error) {
	metricRuns.Inc()
	evs, byRouter, err := n.schedule(extra)
	if err != nil {
		return nil, err
	}
	jobs := n.jobs(byRouter, n.meterSeeds())
	grid := n.stepGrid()
	var keep func(int, *routerShard) (bool, error)
	if sink != nil {
		keep = (&spiller{sink: sink, nanos: grid.nanos}).spill
	}
	return n.replay(&player{workers: n.Config.Workers}, grid, jobs, n.totalCapacity(), describeFleetEvents(evs), nil, keep)
}

// schedule returns the built-in schedule with extra merged in, sorted by
// due time, and split per router. Cold runs and NewFleet both start
// here. An event that fails validation or names no router of the
// network fails the whole schedule.
func (n *Network) schedule(extra []FleetEvent) ([]FleetEvent, map[string][]FleetEvent, error) {
	evs := append(n.baseEvents(), extra...)
	sortFleetEvents(evs)
	for _, e := range evs {
		if err := e.validate(); err != nil {
			return nil, nil, err
		}
		if _, ok := n.byName[e.Router]; !ok {
			return nil, nil, fmt.Errorf("ispnet: event %s: unknown router %q", e.Op, e.Router)
		}
	}
	return evs, splitByRouter(evs), nil
}

// splitByRouter splits a sorted schedule per router. Each router's share
// keeps its schedule order — events due at the same step included — so
// every router applies its events exactly as the whole schedule orders
// them.
func splitByRouter(evs []FleetEvent) map[string][]FleetEvent {
	out := make(map[string][]FleetEvent)
	for _, e := range evs {
		out[e.Router] = append(out[e.Router], e)
	}
	return out
}

// jobs builds one replay job per router of a freshly built network, in
// fleet order.
func (n *Network) jobs(byRouter map[string][]FleetEvent, meterSeeds map[string]int64) []replayJob {
	jobs := make([]replayJob, len(n.Routers))
	for i, r := range n.Routers {
		jobs[i] = newJob(i, r, byRouter[r.Name], meterSeeds)
	}
	return jobs
}

// newJob stages router r, at fleet index i, for replay: its share of the
// sorted, validated schedule, and a fresh external meter when the router
// is instrumented. The shard that plays the job attaches the meter to
// the device it materializes and compiles the schedule against both.
func newJob(i int, r *Router, sched []FleetEvent, meterSeeds map[string]int64) replayJob {
	j := replayJob{idx: i, router: r, sched: sched}
	if seed, ok := meterSeeds[r.Name]; ok {
		j.meter = meter.New(seed)
	}
	return j
}

// meterSeeds maps every instrumented router to its external-meter seed.
// The seeds follow the AutopowerRouters order of the pristine build,
// never worker scheduling; they are part of the dataset's determinism
// contract, because an incremental replay must recreate the exact meter
// a cold run attached.
func (n *Network) meterSeeds() map[string]int64 {
	seeds := make(map[string]int64)
	for i, r := range n.AutopowerRouters() {
		seeds[r.Name] = n.Config.Seed + int64(i) + 1000
	}
	return seeds
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

// fold is the one reduction of a replay into a dataset. Its totals are
// the columns that become TotalPower and TotalTraffic.
type fold struct {
	ds             *Dataset
	power, traffic []float64
}

// addInto adds a router's step column into a total column: the one place
// router contributions are summed.
func addInto(total, col []float64) {
	for i, v := range col {
		total[i] += v
	}
}

// replay plays the jobs (in fleet order) through the pipeline and folds
// the whole fleet, in order, into a new dataset. A router with a job is
// folded from its played shard, which keep then sees (nil keeps
// nothing); every other router is folded by restore from its retention.
// So every step's total is a left fold over the fleet in router order,
// starting at 0 — a router contributes exactly 0 while undeployed —
// whatever the worker count and whichever routers were replayed: the
// whole bit-identity contract between cold, streamed and incremental
// runs.
func (n *Network) replay(pl *player, grid *stepGrid, jobs []replayJob, capacity units.BitRate, events []Event,
	restore func(fo *fold, i int) error, keep func(k int, sh *routerShard) (bool, error)) (*Dataset, error) {
	steps := len(grid.nanos)
	ds := &Dataset{
		Network:          n,
		TotalCapacity:    capacity,
		RouterWallMedian: make(map[string]units.Power),
		RouterWallPeak:   make(map[string]units.Power),
		Autopower:        make(map[string]*timeseries.Series),
		SNMPPower:        make(map[string]*timeseries.Series),
		IfaceRates:       make(map[string]map[string]*timeseries.Series),
		IfaceProfiles:    make(map[string]map[string]model.ProfileKey),
		Events:           events,
	}
	fo := &fold{ds: ds, power: make([]float64, steps), traffic: make([]float64, steps)}
	next := 0
	restoreTo := func(end int) error {
		for ; next < end; next++ {
			if err := restore(fo, next); err != nil {
				return err
			}
		}
		return nil
	}
	err := pl.play(n, grid, jobs, func(k int, sh *routerShard) (bool, error) {
		if err := restoreTo(jobs[k].idx); err != nil {
			return false, err
		}
		addInto(fo.power, sh.power)
		addInto(fo.traffic, sh.traffic)
		ds.addShard(sh)
		next++
		if keep == nil {
			return false, nil
		}
		return keep(k, sh)
	})
	if err == nil {
		err = restoreTo(len(n.Routers))
	}
	if err != nil {
		return nil, err
	}
	ds.TotalPower = timeseries.FromColumns("total-power", slices.Clone(grid.nanos), fo.power)
	ds.TotalTraffic = timeseries.FromColumns("total-traffic", slices.Clone(grid.nanos), fo.traffic)
	return ds, nil
}

// addShard records a played shard's per-router results: its
// instrumented traces, then what addRouter records.
func (ds *Dataset) addShard(sh *routerShard) {
	r := sh.router
	if sh.autopower != nil {
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
			Model:  r.Model,
			PSUs:   psus,
		})
	}
}

// scheduledEvent is an event with its mutation.
type scheduledEvent struct {
	at    time.Time
	desc  string
	apply func() error
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
		switch r.Model {
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

// dropInterface removes an interface from the deployment records and
// retires its port.
func dropInterface(r *Router, ifName string) {
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

// deployPort puts a device port into the state a deployed interface of
// profile p has: the transceiver plugged and, when up (every interface but
// a spare), the port admin-up with a live far end.
func deployPort(dev *device.Router, name string, p model.ProfileKey, up bool) error {
	if err := dev.PlugTransceiver(name, p.Transceiver, p.Speed); err != nil {
		return err
	}
	if !up {
		return nil
	}
	if err := dev.SetAdmin(name, true); err != nil {
		return err
	}
	return dev.SetLink(name, true)
}

// addInterfaces brings up additional DAC interfaces on free ports of the
// router's device.
func addInterfaces(r *Router, dev *device.Router, count int) error {
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
	for _, name := range dev.Spec().PortNames() {
		if added == count {
			break
		}
		if used[name] || r.retired[name] {
			continue
		}
		if err := deployPort(dev, name, tmplProfile.Profile, true); err != nil {
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
		if err := deployPort(dev, names[i], model.ProfileKey{Port: spec.PortType, Transceiver: model.PassiveDAC, Speed: 100 * units.GigabitPerSecond}, true); err != nil {
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
