package ispnet

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/meter"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/trafficgen"
	"fantasticjoules/internal/units"
)

// routerShard is the unit of parallelism of the replay pipeline: one
// router's complete timeline — its device, its filtered event queue, its
// device advances, its wall samples and, for instrumented routers, its
// Autopower/SNMP/rate traces.
//
// The device lives only inside the shard: the pipeline lends the shard a
// recycled *device.Router at admit, the worker materializes the router on
// it (materialize) before play, and the pipeline takes it back when the
// shard is folded, dropping every reference to it — the meter and the
// compiled events included — so a retained shard keeps its results, not
// its device.
//
// Everything a shard touches while play runs is owned by exactly one
// worker goroutine (goroutine confinement): the device and the
// *meter.Meter belong to this router alone, LoadAt is pure, and the events
// in the queue mutate only this router. The hot path therefore contends on
// no locks. The result fields are read by the consumer only after the
// shard's done channel closes.
type routerShard struct {
	net    *Network
	router *Router
	// idx is the router's fleet index, the key of its device seed.
	idx int
	// dev is the recycled device the shard plays the router on, from
	// admit until the pipeline takes it back (nil otherwise).
	dev   *device.Router
	meter *meter.Meter // nil unless instrumented; detached at finish
	// sched is the router's share of the schedule; materialize compiles
	// it into events against (router, dev).
	sched  []FleetEvent
	events []scheduledEvent
	// grid is the window's shared, read-only step grid.
	grid *stepGrid
	// snapAt is the mid-window instant of the one-time PSU sensor export.
	// The snapshot is taken by the shard itself (not by the fold)
	// because EnvSnapshot draws from the router's private rng:
	// capturing it at a fixed point in the shard's replay keeps the rng
	// stream — and therefore every later draw — identical whether the
	// shard ran in a cold Simulate or an incremental Fleet replay.
	snapAt time.Time

	// Per-step contributions to the network totals, indexed like the
	// grid. Steps where the router is not deployed contribute exactly 0,
	// which keeps the merged floating-point sums independent of
	// deployment gaps.
	power   []float64
	traffic []float64
	// wall collects the wall-power samples of deployed steps; play
	// reduces it to stats once the window is done (selection reorders
	// it, so it is scratch afterwards).
	wall  []float64
	stats wallStats

	// Instrumented-router traces (nil otherwise).
	autopower *timeseries.Series
	snmp      *timeseries.Series
	rates     map[string]*timeseries.Series
	profiles  map[string]model.ProfileKey
	// psus is the mid-window environment-sensor export (nil when the
	// router was not active at snapAt).
	psus []psu.Snapshot

	// plan is the precomputed per-interface replay state: device handle
	// and profile resolved once, rebuilt only when a scheduled event fires
	// (events are the only thing that mutates router.Interfaces). The oper
	// and load fields are per-step scratch, written by the offering loop
	// and reused by the instrumented rates loop — which previously paid a
	// second InterfaceState lookup and a second LoadAt evaluation per
	// interface per step.
	plan []ifacePlan

	// eventsApplied counts the scheduled events play actually applied
	// (telemetry only; never read by the simulation).
	eventsApplied int

	err error
	// done closes when a pipeline worker has played the shard (nil when
	// the shard plays inline).
	done chan struct{}
}

// ifacePlan is one interface's precomputed replay state; see
// routerShard.plan.
type ifacePlan struct {
	itf    *Interface
	handle device.Handle
	// noise is the interface's noisePrefix on the calibrated fleet (the
	// step-independent part of its noise hash); hierarchical fleets key
	// their noise on Interface.noiseKey and leave it 0.
	noise uint64
	// rateSeries caches the instrumented per-interface rate trace so the
	// per-step rates loop skips the map lookup; relinked lazily after a
	// plan rebuild.
	rateSeries *timeseries.Series
	spare      bool

	// Per-step scratch.
	oper bool
	load units.BitRate
}

// buildPlan resolves handles and profile keys for the router's current
// interface list. Called before the step loop and again after every event
// application: events may add, drop, or reorder interfaces, which moves
// the backing array the itf pointers index into.
func (sh *routerShard) buildPlan() error {
	r := sh.router
	hier := sh.net.hier
	sh.plan = sh.plan[:0]
	for i := range r.Interfaces {
		itf := &r.Interfaces[i]
		h, err := sh.dev.Handle(itf.Name)
		if err != nil {
			return err
		}
		p := ifacePlan{itf: itf, handle: h, spare: itf.Spare}
		if !hier {
			p.noise = noisePrefix(r.Name, itf.Name)
		}
		sh.plan = append(sh.plan, p)
		if sh.profiles != nil {
			sh.profiles[itf.Name] = itf.Profile
		}
	}
	return nil
}

// materialize makes the shard's device: it resets the lent device to the
// router's model and fleet-index seed, plugs every deployed transceiver
// and brings every non-spare interface up — the device Build used to
// carry, as deploy and deployHier plan it — then attaches the external
// meter and compiles the router's events against (router, device). It
// runs in the worker, just before play.
func (sh *routerShard) materialize() error {
	r, dev := sh.router, sh.dev
	spec, ok := sh.net.specs[r.Model]
	if !ok {
		return fmt.Errorf("ispnet: %s: unknown model %q", r.Name, r.Model)
	}
	if err := dev.Reset(spec, r.Name, deviceSeed(sh.net.Config.Seed, sh.idx)); err != nil {
		return fmt.Errorf("ispnet: %s: %w", r.Name, err)
	}
	for i := range r.Interfaces {
		itf := &r.Interfaces[i]
		if err := deployPort(dev, itf.Name, itf.Profile, !itf.Spare); err != nil {
			return fmt.Errorf("ispnet: %s: %w", r.Name, err)
		}
	}
	if sh.meter != nil {
		if err := sh.meter.Attach(0, dev); err != nil {
			return err
		}
	}
	sh.events = make([]scheduledEvent, len(sh.sched))
	for k, e := range sh.sched {
		sh.events[k] = compileEvent(r, dev, e)
	}
	return nil
}

// allocTraces allocates a metered shard's instrumented traces, once per
// window; the pipeline attaches the step buffers.
func (sh *routerShard) allocTraces() {
	if sh.meter == nil {
		return
	}
	cfg, r := sh.net.Config, sh.router
	steps := len(sh.grid.times)
	subSteps := int(cfg.SNMPStep / cfg.AutopowerStep)
	if cfg.SNMPStep%cfg.AutopowerStep != 0 {
		subSteps++
	}
	sh.autopower = timeseries.NewWithCap(r.Name+".autopower", steps*subSteps)
	sh.rates = make(map[string]*timeseries.Series, len(r.Interfaces))
	sh.profiles = make(map[string]model.ProfileKey, len(r.Interfaces))
}

// play replays the router's full study window. It is the sharded port of
// the former time×routers loop: the same event application, traffic
// offering, metering cadence, and device advances, restricted to one
// router.
//
//joules:hotpath
func (sh *routerShard) play() error {
	n, r, dev := sh.net, sh.router, sh.dev
	cfg := n.Config
	//jouleslint:ignore hotpath -- cold start: allocates a metered shard's traces once, before its window replays
	sh.allocTraces()
	if err := sh.buildPlan(); err != nil {
		return err
	}

	events := sh.events
	g := sh.grid
	for si, t := range g.times {
		// Apply this router's due events in schedule order; events are the
		// only mutation of the interface list, so the plan is rebuilt here
		// and nowhere else.
		replan := false
		for len(events) > 0 && !events[0].at.After(t) {
			if err := events[0].apply(); err != nil {
				return fmt.Errorf("ispnet: event %q: %w", events[0].desc, err)
			}
			events = events[1:]
			sh.eventsApplied++
			replan = true
		}
		if replan {
			if err := sh.buildPlan(); err != nil {
				return err
			}
		}
		if !r.Active(t) {
			continue
		}

		// Offer this step's loads: one lock acquisition for the whole
		// batch, handle-addressed interface access, and the step's
		// multiplier and unix seconds read from the grid.
		unix := g.unix[si]
		var mult float64
		var cm *[trafficgen.NumCohorts]float64
		if n.hier {
			cm = &g.cohort[si]
		} else {
			mult = g.mult[si]
		}
		st := dev.BeginStep()
		var stepTraffic float64
		for pi := range sh.plan {
			p := &sh.plan[pi]
			p.oper = false
			p.load = 0
			if p.spare {
				continue
			}
			present, admin, oper := st.InterfaceState(p.handle)
			p.oper = oper
			if !present || !admin || !oper {
				continue
			}
			var load units.BitRate
			if cm != nil {
				load = hierLoad(p.itf, cm, unix)
			} else {
				load = calibratedLoad(p.itf, mult, noiseAt(p.noise, unix))
			}
			if err := st.SetTraffic(p.handle, load, PacketRateAt(load)); err != nil {
				st.End()
				return fmt.Errorf("ispnet: %s/%s: %w", r.Name, p.itf.Name, err)
			}
			p.load = load
			stepTraffic += load.BitsPerSecond() / 2
		}

		var w float64
		if sh.meter != nil {
			// Fine-grained external metering plus per-interface rates. The
			// meter samples the router through its own lock, so the batch
			// ends before the metered sub-loop.
			st.End()
			for sub := time.Duration(0); sub < cfg.SNMPStep; sub += cfg.AutopowerStep {
				v, err := sh.meter.Read(0)
				if err != nil {
					return err
				}
				sh.autopower.Append(t.Add(sub), v.Watts())
				dev.Advance(cfg.AutopowerStep)
			}
			for pi := range sh.plan {
				p := &sh.plan[pi]
				if p.rateSeries == nil {
					rates, ok := sh.rates[p.itf.Name]
					if !ok {
						//jouleslint:ignore hotpath -- lazy per-interface series creation: first metered step for that interface only
						rates = timeseries.NewWithCap(r.Name+"."+p.itf.Name+".rate", len(g.times))
						sh.rates[p.itf.Name] = rates
					}
					p.rateSeries = rates
				}
				// The oper state and load were computed by the offering
				// loop above; advancing the clock changes neither.
				if p.oper {
					p.rateSeries.Append(t, p.load.BitsPerSecond())
				} else {
					p.rateSeries.Append(t, 0)
				}
			}
			if rep, err := dev.ReportedTotalPower(); err == nil {
				if sh.snmp == nil {
					//jouleslint:ignore hotpath -- lazy one-time creation of the reported-power series
					sh.snmp = timeseries.NewWithCap(r.Name+".snmp", len(g.times))
				}
				sh.snmp.Append(t, rep.Watts())
			}
			w = dev.WallPower().Watts()
		} else {
			st.Advance(cfg.SNMPStep)
			w = st.WallPower().Watts()
			st.End()
		}

		sh.power[si] = w
		sh.traffic[si] = stepTraffic
		sh.wall = append(sh.wall, w)
	}
	// The median and peak are final once the window is done: reduce them
	// here, once, so no fold, splice or Resimulate ever revisits the
	// samples.
	sh.stats = selectWallStats(sh.wall)
	// One-time PSU export after the window (§9.2). Taken here — not by
	// the caller — so the draws land at the same point of the router's
	// rng stream in cold and incremental replays alike.
	if !sh.snapAt.IsZero() && r.Active(sh.snapAt) {
		//jouleslint:ignore hotpath -- one-time PSU export after the window (§9.2), not per step
		sh.psus = dev.EnvSnapshot()
	}
	return nil
}

// streamWindowSlack is how many shards beyond the worker count the
// pipeline admits: finished shards waiting for their in-order fold turn.
const streamWindowSlack = 2

// player is the one replay pipeline. It plays a fleet-ordered list of
// jobs and hands each played shard to a consumer on the calling
// goroutine, strictly in job order; cold, streamed and Fleet runs differ
// only in that consumer. At most workers+streamWindowSlack shards are
// admitted at once, each drawing its step buffers (power, traffic, wall)
// and its device from the player's free lists, so the live step buffers
// and devices of a run are bounded by the window, not by the fleet. A
// Fleet keeps its player, and with it the free lists, across
// Resimulates.
type player struct {
	// workers bounds the concurrent plays: ≤ 0 selects GOMAXPROCS, and 1
	// plays every shard inline on the calling goroutine.
	workers int
	// free holds the step buffers no shard or retention uses, each with
	// room for every step of the player's grid (a player serves one grid).
	free [][]float64
	// devices holds the devices no admitted shard uses; a shard Resets
	// the one it is lent, so any of them serves any router.
	devices []*device.Router
}

// lend lends an admitted shard a device, from the free list when it
// has one.
func (p *player) lend() *device.Router {
	k := len(p.devices) - 1
	if k < 0 {
		return new(device.Router)
	}
	d := p.devices[k]
	p.devices = p.devices[:k]
	return d
}

// buffer returns a zeroed step buffer of n points, from the free list
// when it has one: a shard relies on its undeployed steps reading 0.
func (p *player) buffer(n int) []float64 {
	k := len(p.free) - 1
	if k < 0 {
		return make([]float64, n)
	}
	buf := p.free[k][:n]
	p.free = p.free[:k]
	clear(buf)
	return buf
}

// play plays the jobs and hands each played shard to consume, in job
// order, on the calling goroutine. consume reports whether it keeps the
// shard's power and traffic columns; every step buffer it does not keep
// returns to the free list when it returns. After the first error — a
// failing shard or a failing consume — play admits no further shard,
// waits for the admitted ones and returns that error, the first in job
// order. The produced data is the same for every worker count: shards
// share no mutable state and consume sees them in one fixed order.
func (p *player) play(n *Network, grid *stepGrid, jobs []replayJob, consume func(k int, sh *routerShard) (bool, error)) error {
	steps := len(grid.nanos)
	admit := func(j replayJob) *routerShard {
		return &routerShard{
			net:     n,
			router:  j.router,
			idx:     j.idx,
			dev:     p.lend(),
			meter:   j.meter,
			sched:   j.sched,
			grid:    grid,
			snapAt:  n.Config.Start.Add(n.Config.Duration / 2),
			power:   p.buffer(steps),
			traffic: p.buffer(steps),
			wall:    p.buffer(steps)[:0],
		}
	}
	finish := func(k int, sh *routerShard) error {
		keep, err := false, sh.err
		if err == nil {
			keep, err = consume(k, sh)
		}
		// The wall samples are scratch once play has reduced them, and the
		// device once the consumer has the shard's results: take it back
		// and drop everything that reaches it.
		p.free = append(p.free, sh.wall)
		p.devices = append(p.devices, sh.dev)
		if !keep {
			p.free = append(p.free, sh.power, sh.traffic)
			sh.power, sh.traffic = nil, nil
		}
		sh.wall, sh.done = nil, nil
		sh.dev, sh.meter, sh.events = nil, nil, nil
		return err
	}

	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for k, j := range jobs {
			sh := admit(j)
			sh.err = sh.playInstrumented()
			if err := finish(k, sh); err != nil {
				return err
			}
		}
		return nil
	}

	// slots holds the admitted shards in job order. Both channels hold a
	// whole window, so admitting never blocks the calling goroutine.
	window := workers + streamWindowSlack
	slots := make(chan *routerShard, window)
	work := make(chan *routerShard, window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range work {
				sh.err = sh.playInstrumented()
				close(sh.done)
			}
		}()
	}
	admitted := 0
	admitNext := func() {
		sh := admit(jobs[admitted])
		sh.done = make(chan struct{})
		admitted++
		slots <- sh
		work <- sh
	}
	for admitted < min(window, len(jobs)) {
		admitNext()
	}
	var firstErr error
	for k := 0; k < admitted; k++ {
		sh := <-slots
		<-sh.done
		if firstErr != nil {
			continue
		}
		if firstErr = finish(k, sh); firstErr == nil && admitted < len(jobs) {
			admitNext()
		}
	}
	close(work)
	wg.Wait()
	return firstErr
}
