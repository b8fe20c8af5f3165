// Package ispnet synthesizes the Tier-2 ISP network the paper studies
// (Switch): 107 deployed routers across points of presence, their
// transceiver inventories, internal and external links, and the
// 5-minute SNMP / sub-minute Autopower traces every analysis consumes.
//
// This is the substitute for the paper's production dataset. The network
// is calibrated to the concrete numbers the paper reports: ≈21.5–22 kW
// total power at ≈1–2 Tbps total traffic (Fig. 1), ≈10 % of power in
// transceivers (§7), ≈51 % external interfaces (§8), per-model median
// powers near Table 1, and the trace events of Fig. 4 (transceiver
// removal, interface flapping, PSU power cycling at Autopower install).
//
// The replay is sharded per router (shard.go) and instrumented on the
// process-wide telemetry registry (metrics.go): shard replay durations,
// routers/events/samples processed, and worker-pool occupancy — without
// perturbing the bit-identical-at-any-worker-count guarantee that
// determinism_test.go pins.
package ispnet

import (
	"fmt"
	"math/rand"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/trafficgen"
	"fantasticjoules/internal/units"
)

// Config parameterizes the synthetic network.
type Config struct {
	// Seed drives all randomness; equal seeds give identical networks.
	Seed int64
	// Start is the beginning of the study window (default 2024-09-01 UTC,
	// matching the Fig. 1/4 x-axes).
	Start time.Time
	// Duration is the study window length (default 9 weeks — the window
	// the paper's figures show; the full 10-month collection is just a
	// longer run of the same generator).
	Duration time.Duration
	// SNMPStep is the SNMP polling interval (default 5 min, as deployed).
	SNMPStep time.Duration
	// AutopowerStep is the external-meter sampling interval used for the
	// three instrumented routers. The hardware samples at 0.5 s; traces
	// default to 1 min here, which is already far denser than the
	// 30-minute smoothing the analyses apply.
	AutopowerStep time.Duration
	// Routers selects the fleet size. The default (0, normalized to
	// NumRouters) builds the paper's calibrated 107-router Switch network,
	// bit-identical to every prior release. Any other value builds the
	// hierarchical access → metro → core fleet of that many routers
	// (hierarchy.go) with subscriber-synthesized demand; 8 is the minimum,
	// 100k the intended ceiling.
	Routers int
	// Workers bounds how many router shards a replay plays concurrently.
	// Per-router state is independent (each shard owns its router's
	// device, meter and events), so the fleet replay is embarrassingly
	// parallel; only the network totals are shared, and the fold adds
	// the shards into them in fixed fleet order. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 plays the shards one after another on the
	// calling goroutine (the serial reference path). Every worker count
	// produces a bit-identical Dataset for the same seed.
	Workers int
}

func (c *Config) applyDefaults() {
	if c.Routers == 0 {
		c.Routers = NumRouters
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Duration == 0 {
		c.Duration = 9 * 7 * 24 * time.Hour
	}
	if c.SNMPStep == 0 {
		c.SNMPStep = 5 * time.Minute
	}
	if c.AutopowerStep == 0 {
		c.AutopowerStep = time.Minute
	}
}

// NumRouters is the size of the studied network.
const NumRouters = 107

// Interface describes one deployed interface: its power profile, role,
// and offered mean load.
type Interface struct {
	Name string
	// Profile is the port/transceiver/speed class.
	Profile model.ProfileKey
	// External reports whether the interface connects to another network
	// (§8: such links cannot be slept by an intra-domain scheme).
	External bool
	// Spare marks a transceiver left plugged into an admin-down port
	// (operators stage spares this way, §6.2) — it draws Ptrx,in but
	// carries no configuration or traffic.
	Spare bool
	// MeanLoad is the long-term mean bidirectional traffic.
	MeanLoad units.BitRate
	// PeerRouter and PeerInterface name the far end for internal links;
	// empty for external and spare interfaces.
	PeerRouter    string
	PeerInterface string
	// Subscribers counts the synthetic subscribers homed on this interface.
	// Only hierarchical fleets populate it; the calibrated 107-router
	// build hand-sets MeanLoad instead and leaves it 0.
	Subscribers int
	// SubDemand is the per-cohort aggregate mean demand in bit/s
	// (hierarchical fleets only; see trafficgen's subscriber synthesis).
	// MeanLoad is its sum.
	SubDemand [trafficgen.NumCohorts]float64
	// noiseKey seeds the per-(interface, step) traffic noise on
	// hierarchical fleets. It is derived from the (router index, interface
	// index) pair through a bijective mixer, so it is collision-free by
	// construction at any fleet size — unlike hashing the interface's
	// name, which at 100k-router cardinality (millions of names) would
	// correlate the noise of birthday-colliding interfaces.
	noiseKey uint64
}

// Router is one deployed router: its deployment metadata and interfaces,
// and the hardware model they are deployed on. A Router carries no
// electrical device: the replay pipeline materializes one, from the model
// and the router's fleet-index seed, inside the shard that plays the
// router, and recycles it when the shard is folded (shard.go).
type Router struct {
	// Name is the anonymized router name; the PoP is encoded in the
	// prefix so intra-PoP relations stay visible (the paper's
	// anonymization preserves this).
	Name string
	PoP  string
	// Tier is the PoP tier on hierarchical fleets ("access", "metro",
	// "core"); empty on the calibrated 107-router build.
	Tier string
	// Model is the hardware model (a device.Catalog name).
	Model string
	// Interfaces lists the deployed interfaces (configured or spare).
	Interfaces []Interface
	// Autopower marks the three externally metered routers.
	Autopower bool
	// retired records ports whose interface was removed mid-run; they are
	// never reused, so trace labels stay unambiguous.
	retired map[string]bool
	// ActiveFrom/ActiveTo bound the router's deployment within the study
	// window (hardware (de)commissioning, visible as steps in Fig. 1).
	// Zero values mean "the whole window".
	ActiveFrom, ActiveTo time.Time
}

// Active reports whether the router is deployed at time t.
func (r *Router) Active(t time.Time) bool {
	if !r.ActiveFrom.IsZero() && t.Before(r.ActiveFrom) {
		return false
	}
	if !r.ActiveTo.IsZero() && !t.Before(r.ActiveTo) {
		return false
	}
	return true
}

// Network is the deployed fleet.
type Network struct {
	Config  Config
	Routers []*Router

	diurnal trafficgen.Diurnal
	byName  map[string]*Router
	// specs maps every model in the fleet to its hardware spec, for the
	// shards that materialize devices; read-only after Build.
	specs map[string]device.ModelSpec
	// hier marks a hierarchical fleet: loads come from the per-interface
	// cohort demand vectors instead of the calibrated MeanLoad path.
	hier bool
	// subscribers is the fleet-wide synthetic subscriber count.
	subscribers int64
}

// Hierarchical reports whether the network was built by the hierarchical
// topology generator (Config.Routers != NumRouters) rather than the
// calibrated 107-router plan.
func (n *Network) Hierarchical() bool { return n.hier }

// TotalSubscribers returns the number of synthetic subscribers the fleet
// serves. The calibrated 107-router build reports 0 — its demand is
// hand-set per interface, not synthesized from a population.
func (n *Network) TotalSubscribers() int64 { return n.subscribers }

// RouterByName looks a router up by its anonymized name.
func (n *Network) RouterByName(name string) (*Router, bool) {
	r, ok := n.byName[name]
	return r, ok
}

// AutopowerRouters returns the externally metered routers in name order.
func (n *Network) AutopowerRouters() []*Router {
	var out []*Router
	for _, r := range n.Routers {
		if r.Autopower {
			out = append(out, r)
		}
	}
	return out
}

// deployment templates: per hardware model, how a typical deployed unit is
// populated. Loads are small fractions of line rate — the network runs at
// ≈1.3 % utilization (Fig. 1).
type deployTemplate struct {
	count int // routers of this model in the fleet
	// interface groups: count × profile at a mean utilization.
	groups []deployGroup
	spares int // transceivers plugged into admin-down ports
	// spareGroup selects which group's transceiver type the spares use,
	// as a 1-based index; 0 means the last group (spares tend to be the
	// pricey optics staged for the backbone).
	spareGroup int
}

// ports is the number of interfaces the template deploys: every group
// member plus the spares.
func (t deployTemplate) ports() int {
	n := 0
	for _, g := range t.groups {
		n += g.n
	}
	if len(t.groups) > 0 {
		n += t.spares
	}
	return n
}

// spareGroupIndex resolves the spare transceiver group.
func (t deployTemplate) spareGroupIndex() int {
	if t.spareGroup > 0 && t.spareGroup <= len(t.groups) {
		return t.spareGroup - 1
	}
	return len(t.groups) - 1
}

type deployGroup struct {
	n           int
	trx         model.TransceiverType
	speed       units.BitRate
	utilization float64 // mean load as a fraction of speed
	external    bool
}

func fleetPlan() map[string]deployTemplate {
	g := units.GigabitPerSecond
	return map[string]deployTemplate{
		// Access/edge: many small ASR-920s, customer-facing optics plus a
		// couple of backbone uplinks.
		"ASR-920-24SZ-M": {count: 33, groups: []deployGroup{
			{n: 4, trx: model.LR, speed: 10 * g, utilization: 0.08, external: true},
			{n: 3, trx: model.BaseT, speed: 1 * g, utilization: 0.10, external: true},
			{n: 3, trx: model.LR, speed: 10 * g, utilization: 0.06},
			{n: 4, trx: model.PassiveDAC, speed: 10 * g, utilization: 0.03},
		}, spares: 1},
		"N540-24Z8Q2C-M": {count: 15, groups: []deployGroup{
			{n: 5, trx: model.LR, speed: 10 * g, utilization: 0.08, external: true},
			{n: 3, trx: model.LR, speed: 10 * g, utilization: 0.06},
			{n: 4, trx: model.PassiveDAC, speed: 25 * g, utilization: 0.02},
		}, spares: 1},
		"N540X-8Z16G-SYS-A": {count: 8, groups: []deployGroup{
			{n: 2, trx: model.BaseT, speed: 1 * g, utilization: 0.08, external: true},
			{n: 2, trx: model.LR, speed: 10 * g, utilization: 0.02},
		}, spares: 1, spareGroup: 1},
		// Aggregation: NCS 5500s on 100G, LR4 optics toward other PoPs.
		"NCS-55A1-24H": {count: 9, groups: []deployGroup{
			{n: 6, trx: model.LR4, speed: 100 * g, utilization: 0.026, external: true},
			{n: 6, trx: model.LR4, speed: 100 * g, utilization: 0.02},
			{n: 6, trx: model.PassiveDAC, speed: 100 * g, utilization: 0.013},
		}, spares: 2, spareGroup: 1},
		"NCS-55A1-24Q6H-SS": {count: 7, groups: []deployGroup{
			{n: 6, trx: model.LR4, speed: 100 * g, utilization: 0.026, external: true},
			{n: 4, trx: model.LR4, speed: 100 * g, utilization: 0.02},
			{n: 5, trx: model.PassiveDAC, speed: 100 * g, utilization: 0.013},
		}, spares: 1, spareGroup: 1},
		"NCS-55A1-48Q6H": {count: 7, groups: []deployGroup{
			{n: 7, trx: model.LR4, speed: 100 * g, utilization: 0.026, external: true},
			{n: 5, trx: model.LR4, speed: 100 * g, utilization: 0.02},
			{n: 8, trx: model.PassiveDAC, speed: 100 * g, utilization: 0.013},
		}, spares: 1, spareGroup: 1},
		"ASR-9001": {count: 9, groups: []deployGroup{
			{n: 7, trx: model.LR, speed: 10 * g, utilization: 0.06, external: true},
			{n: 2, trx: model.LR, speed: 10 * g, utilization: 0.06},
			{n: 3, trx: model.PassiveDAC, speed: 10 * g, utilization: 0.03},
		}, spares: 1},
		// Core: Cisco 8000s on 100G/400G.
		"8201-32FH": {count: 7, groups: []deployGroup{
			{n: 3, trx: model.FR4, speed: 400 * g, utilization: 0.05, external: true},
			{n: 8, trx: model.PassiveDAC, speed: 100 * g, utilization: 0.04},
			{n: 4, trx: model.PassiveDAC, speed: 100 * g, utilization: 0.04, external: true},
		}, spares: 1, spareGroup: 1},
		"8201-24H8FH": {count: 6, groups: []deployGroup{
			{n: 3, trx: model.FR4, speed: 400 * g, utilization: 0.02, external: true},
			{n: 6, trx: model.PassiveDAC, speed: 100 * g, utilization: 0.013},
			{n: 4, trx: model.PassiveDAC, speed: 100 * g, utilization: 0.013, external: true},
		}, spares: 1},
		"Nexus9336-FX2": {count: 6, groups: []deployGroup{
			{n: 6, trx: model.LR, speed: 100 * g, utilization: 0.026, external: true},
			{n: 4, trx: model.LR, speed: 100 * g, utilization: 0.02},
			{n: 4, trx: model.PassiveDAC, speed: 100 * g, utilization: 0.013},
		}, spares: 1},
	}
}

// Build constructs the deterministic synthetic network. The default
// Config.Routers builds the paper's calibrated 107-router fleet — that
// path is frozen and bit-identical across releases (golden_test.go pins
// it); any other size dispatches to the hierarchical generator.
func Build(cfg Config) (*Network, error) {
	cfg.applyDefaults()
	if cfg.Routers != NumRouters {
		return buildHierarchy(cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{
		Config:  cfg,
		diurnal: trafficgen.DefaultDiurnal(),
		byName:  make(map[string]*Router),
		specs:   make(map[string]device.ModelSpec),
	}

	plan := fleetPlan()
	total := 0
	for _, t := range plan {
		total += t.count
	}
	if total != NumRouters {
		return nil, fmt.Errorf("ispnet: fleet plan has %d routers, want %d", total, NumRouters)
	}

	pops := make([]string, 20)
	for i := range pops {
		pops[i] = fmt.Sprintf("pop%02d", i+1)
	}

	// Deterministic ordering over models.
	idx := 0
	for _, modelName := range device.CatalogNames() {
		tpl, ok := plan[modelName]
		if !ok {
			continue
		}
		spec, err := device.Spec(modelName)
		if err != nil {
			return nil, err
		}
		n.specs[modelName] = spec
		for i := 0; i < tpl.count; i++ {
			pop := pops[idx%len(pops)]
			name := fmt.Sprintf("%s-rtr%02d", pop, idx)
			r := &Router{Name: name, PoP: pop, Model: modelName}
			if err := deploy(r, spec, tpl, rng); err != nil {
				return nil, fmt.Errorf("ispnet: deploy %s: %w", name, err)
			}
			n.Routers = append(n.Routers, r)
			n.byName[name] = r
			idx++
		}
	}

	n.wireInternalLinks()
	n.markSpecialRouters()
	return n, nil
}

// deviceSeed is the device rng seed of the router at fleet index idx. It
// is part of the determinism contract: every shard that plays the router,
// cold or in a Fleet, materializes its device with this seed.
func deviceSeed(seed int64, idx int) int64 { return seed + int64(idx)*7919 }

// deploy populates a router's deployment records from its template: the
// groups' interfaces, then the spares, on the model's ports in order. It
// checks every profile against the spec as plugging it would, so a
// template the model cannot carry fails Build; the device itself is made
// only by the shard that plays the router (routerShard.materialize).
func deploy(r *Router, spec device.ModelSpec, tpl deployTemplate, rng *rand.Rand) error {
	take := portTaker(spec)
	r.Interfaces = make([]Interface, 0, tpl.ports())
	for _, grp := range tpl.groups {
		key := model.ProfileKey{Port: spec.PortType, Transceiver: grp.trx, Speed: grp.speed}
		for i := 0; i < grp.n; i++ {
			ifName, err := take(key)
			if err != nil {
				return err
			}
			// ±40 % spread around the template utilization.
			util := grp.utilization * (0.6 + 0.8*rng.Float64())
			r.Interfaces = append(r.Interfaces, Interface{
				Name:     ifName,
				Profile:  key,
				External: grp.external,
				MeanLoad: units.BitRate(util * grp.speed.BitsPerSecond()),
			})
		}
	}
	// Spares: plugged, admin-down.
	for i := 0; i < tpl.spares && len(tpl.groups) > 0; i++ {
		grp := tpl.groups[tpl.spareGroupIndex()]
		key := model.ProfileKey{Port: spec.PortType, Transceiver: grp.trx, Speed: grp.speed}
		ifName, err := take(key)
		if err != nil {
			return err
		}
		r.Interfaces = append(r.Interfaces, Interface{Name: ifName, Profile: key, Spare: true})
	}
	return nil
}

// portTaker hands out the model's ports in order, each for a profile the
// model must support.
func portTaker(spec device.ModelSpec) func(model.ProfileKey) (string, error) {
	names := spec.PortNames()
	next := 0
	return func(key model.ProfileKey) (string, error) {
		if next >= len(names) {
			return "", fmt.Errorf("out of ports (%d)", len(names))
		}
		if err := spec.Supports(key); err != nil {
			return "", err
		}
		next++
		return names[next-1], nil
	}
}

// wireInternalLinks builds the backbone Hypnos works over: routers chain
// up inside each PoP, the PoPs form a ring through their gateway routers,
// a few chords add redundancy, and leftover internal interfaces form
// parallel bundle members on inter-PoP adjacencies. Internal interfaces
// that remain unpaired stay up as locally attached infrastructure (they
// draw power and carry traffic but are not sleepable backbone links).
func (n *Network) wireInternalLinks() {
	// Free internal interface indices per router.
	free := make(map[string][]int)
	for _, r := range n.Routers {
		for i := range r.Interfaces {
			itf := &r.Interfaces[i]
			if !itf.External && !itf.Spare {
				free[r.Name] = append(free[r.Name], i)
			}
		}
	}
	pair := func(a, b *Router) bool {
		if a == b {
			return false
		}
		fa, fb := free[a.Name], free[b.Name]
		if len(fa) == 0 || len(fb) == 0 {
			return false
		}
		ai := &a.Interfaces[fa[0]]
		bi := &b.Interfaces[fb[0]]
		free[a.Name] = fa[1:]
		free[b.Name] = fb[1:]
		ai.PeerRouter, ai.PeerInterface = b.Name, bi.Name
		bi.PeerRouter, bi.PeerInterface = a.Name, ai.Name
		mean := (ai.MeanLoad + bi.MeanLoad) / 2
		ai.MeanLoad, bi.MeanLoad = mean, mean
		return true
	}

	// Routers per PoP, in fleet order.
	popOrder := []string{}
	byPop := map[string][]*Router{}
	for _, r := range n.Routers {
		if len(byPop[r.PoP]) == 0 {
			popOrder = append(popOrder, r.PoP)
		}
		byPop[r.PoP] = append(byPop[r.PoP], r)
	}

	// Intra-PoP chains.
	for _, pop := range popOrder {
		rs := byPop[pop]
		for i := 0; i+1 < len(rs); i++ {
			pair(rs[i], rs[i+1])
		}
	}
	// PoP ring between gateways, plus chords every fourth PoP for
	// redundancy. The gateway is the PoP router with the most internal
	// capacity left (in practice an NCS or 8200 core box with optics).
	gateway := func(pop string) *Router {
		rs := byPop[pop]
		best := rs[0]
		for _, r := range rs[1:] {
			if len(free[r.Name]) > len(free[best.Name]) {
				best = r
			}
		}
		return best
	}
	type edge struct{ a, b *Router }
	var interPop []edge
	for i, pop := range popOrder {
		next := gateway(popOrder[(i+1)%len(popOrder)])
		interPop = append(interPop, edge{gateway(pop), next})
		if i%4 == 0 {
			far := gateway(popOrder[(i+len(popOrder)/2)%len(popOrder)])
			interPop = append(interPop, edge{gateway(pop), far})
		}
	}
	for _, e := range interPop {
		pair(e.a, e.b)
	}
	// Parallel bundle members: up to two extra links on every inter-PoP
	// adjacency, and one on the first chain hop of half the PoPs. These
	// are the individually sleepable links Hypnos feeds on.
	for pass := 0; pass < 2; pass++ {
		for _, e := range interPop {
			pair(e.a, e.b)
		}
	}
	for i, pop := range popOrder {
		rs := byPop[pop]
		if i%2 == 0 && len(rs) >= 2 {
			pair(rs[0], rs[1])
		}
	}
}

// markSpecialRouters selects the three Autopower-instrumented routers
// (§6.2: an 8201-32FH, an NCS-55A1-24H, and an N540X) and schedules the
// fleet's (de)commissioning events.
func (n *Network) markSpecialRouters() {
	want := map[string]bool{"8201-32FH": true, "NCS-55A1-24H": true, "N540X-8Z16G-SYS-A": true}
	for _, r := range n.Routers {
		if want[r.Model] {
			r.Autopower = true
			delete(want, r.Model)
		}
	}
	// Fig. 1 power steps: one mid-size router decommissioned in week 3,
	// one commissioned in week 5. Pick deterministic victims that are not
	// Autopower routers.
	var candidates []*Router
	for _, r := range n.Routers {
		if !r.Autopower && (r.Model == "ASR-9001" || r.Model == "NCS-55A1-48Q6H") {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) >= 2 {
		start := n.Config.Start
		candidates[0].ActiveTo = start.Add(3 * 7 * 24 * time.Hour)
		candidates[1].ActiveFrom = start.Add(5 * 7 * 24 * time.Hour)
	}
}

// LoadAt returns an interface's bidirectional load at time t: the mean
// modulated by the diurnal pattern plus deterministic per-interface
// noise. On the calibrated fleet the mean is the hand-set MeanLoad under
// the network-wide diurnal shape; on hierarchical fleets it is the
// subscriber-cohort aggregate under per-cohort shapes. The replay
// evaluates the same load models from its precomputed step grid and
// per-interface noise prefixes; LoadAt is the from-scratch form.
//
//joules:hotpath
func (n *Network) LoadAt(itf *Interface, r *Router, t time.Time) units.BitRate {
	if n.hier {
		var cm [trafficgen.NumCohorts]float64
		trafficgen.CohortMultipliers(t, &cm)
		return hierLoad(itf, &cm, t.Unix())
	}
	return calibratedLoad(itf, n.diurnal.Multiplier(t, nil), hash64(r.Name, itf.Name, t.Unix()))
}

// calibratedLoad is the calibrated fleet's load model: the interface's
// MeanLoad under the diurnal multiplier mult, with h the
// per-(interface, step) noise hash (hash64, or noiseAt of the
// interface's noise prefix).
//
//joules:hotpath
func calibratedLoad(itf *Interface, mult float64, h uint64) units.BitRate {
	if itf.Spare || itf.MeanLoad == 0 {
		return 0
	}
	return noisyLoad(itf.MeanLoad.BitsPerSecond()*mult, h, itf.Profile.Speed)
}

// hierLoad is the hierarchical fleet's load model: a closed-form cohort
// aggregation — a NumCohorts-term dot product of the interface's
// per-cohort demand with the step's cohort multipliers cm, never a
// per-subscriber loop — with noise keyed on the interface's structural
// noise key.
//
//joules:hotpath
func hierLoad(itf *Interface, cm *[trafficgen.NumCohorts]float64, unix int64) units.BitRate {
	if itf.Spare {
		return 0
	}
	d := itf.SubDemand[0]*cm[0] + itf.SubDemand[1]*cm[1] + itf.SubDemand[2]*cm[2]
	if d == 0 {
		return 0
	}
	return noisyLoad(d, mixKey(itf.noiseKey, unix), itf.Profile.Speed)
}

// noisyLoad applies the ±15 % noise drawn from hash h to a mean load and
// clamps the result to [0, 2×speed].
//
//joules:hotpath
func noisyLoad(mean float64, h uint64, speed units.BitRate) units.BitRate {
	load := units.BitRate(mean * (1 + 0.15*(float64(h%2000)/1000-1)))
	if load < 0 {
		load = 0
	}
	if max := speed * 2; load > max {
		load = max
	}
	return load
}

// imixMeanSize is the IMIX mean packet size, computed once.
var imixMeanSize = trafficgen.IMIXMeanSize()

// PacketRateAt derives the packet rate for a load using the IMIX mean
// packet size.
func PacketRateAt(load units.BitRate) units.PacketRate {
	return units.PacketRateFor(load, imixMeanSize, trafficgen.EthernetOverhead)
}

// hash64 is a small FNV-style mix for deterministic noise. The signature
// is concrete — LoadAt runs it once per interface per query, and a
// variadic interface{} version boxes every argument onto the heap. The
// byte sequence matches the original variadic implementation exactly, so
// the noise values (and with them every published dataset figure) are
// unchanged. The replay computes the same hash split in two
// (noisePrefix, noiseAt); hash64 is the reference the split is tested
// against.
//
// Audit note (scale): hash64 keys the noise on interface *names*, which
// is fine for the calibrated 107-router fleet the published figures pin,
// but at 100k-router cardinality (millions of (router, iface) strings in
// a 64-bit space) birthday collisions become likely, and two colliding
// interfaces would share their entire noise trajectory. Hierarchical
// fleets therefore key their noise on ifaceNoiseKey — a bijective mix of
// (router index, interface index), collision-free by construction — and
// hash64 remains, byte for byte, the frozen legacy path.
func hash64(router, iface string, unix int64) uint64 {
	var h uint64 = 1469598103934665603
	const prime = 1099511628211
	for i := 0; i < len(router); i++ {
		h ^= uint64(router[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < len(iface); i++ {
		h ^= uint64(iface[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(unix >> (8 * i)))
		h *= prime
	}
	h ^= 0xff
	h *= prime
	return h
}

// fnvPrime is hash64's multiplier (the 64-bit FNV prime).
const fnvPrime = 1099511628211

// noisePrefix is hash64's state after the router and interface names and
// their 0xff terminators: everything of the hash that does not depend on
// the step. The calibrated replay computes it once per interface per
// plan and folds in only the step's unix seconds (noiseAt), so
// noiseAt(noisePrefix(r, i), u) == hash64(r, i, u) for every input.
func noisePrefix(router, iface string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(router); i++ {
		h ^= uint64(router[i])
		h *= fnvPrime
	}
	h ^= 0xff
	h *= fnvPrime
	for i := 0; i < len(iface); i++ {
		h ^= uint64(iface[i])
		h *= fnvPrime
	}
	h ^= 0xff
	h *= fnvPrime
	return h
}

// noiseAt completes a noisePrefix with the step's unix seconds.
//
//joules:hotpath
func noiseAt(prefix uint64, unix int64) uint64 {
	h := prefix
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(unix >> (8 * i)))
		h *= fnvPrime
	}
	h ^= 0xff
	h *= fnvPrime
	return h
}

// splitmix64 is the SplitMix64 finalizer: a bijection on uint64 with
// strong avalanche behavior. Being a bijection, distinct inputs give
// distinct outputs — the property the hierarchical noise keys rely on.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ifaceNoiseKey derives the per-interface noise key for hierarchical
// fleets from the (router index, interface index) pair. The packing is
// injective for fleets below 2^43 routers with fewer than 2^20 ports
// each, and splitmix64 is a bijection, so no two interfaces in any
// buildable fleet share a key (golden_test.go checks this exhaustively
// on a generated fleet).
func ifaceNoiseKey(routerIdx, ifaceIdx int) uint64 {
	return splitmix64(uint64(routerIdx+1)<<20 | uint64(ifaceIdx))
}

// mixKey folds a step time into an interface noise key, giving the
// per-(interface, step) noise hash for hierarchical fleets — the
// structural-key counterpart of hash64.
func mixKey(key uint64, unix int64) uint64 {
	return splitmix64(key ^ uint64(unix)*0x9e3779b97f4a7c15)
}
