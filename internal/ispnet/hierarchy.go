package ispnet

import (
	"fmt"
	"math"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/trafficgen"
	"fantasticjoules/internal/units"
)

// The hierarchical topology generator: Config.Routers != NumRouters builds
// a continental-scale access → metro → core fleet instead of the paper's
// calibrated 107-router network.
//
// The generator preserves the calibrated fleet's structural invariants at
// every size (hierarchy_test.go asserts them at 107, 1k, and 10k):
//
//   - The per-model deployment templates are reused verbatim, so the
//     external-interface share stays at the paper's ≈51 %-of-capacity /
//     ≈45 %-of-count level and the spare-transceiver discipline carries
//     over.
//   - The tier proportions mirror the calibrated fleet's model mix
//     (56 access / 32 aggregation / 19 core out of 107).
//   - Redundancy: access PoPs dual-home into their metro PoP, metro PoPs
//     dual-home into two core PoPs, core PoP gateways form a ring with
//     chords — every fleet is connected (hypnos.Components == 1) and
//     single-link failures between PoPs do not partition it.
//
// Demand is synthesized bottom-up instead of hand-set: access interfaces
// home subscriber populations (trafficgen.SubscribersFor), uplinks carry
// the closed-form per-cohort aggregate of everything below them, clamped
// to half the slower end's line rate. Everything is derived from seeded,
// structurally keyed mixers — no name hashing, no map iteration — so
// generation is deterministic and O(N).

// hierMinRouters is the smallest hierarchical fleet: two routers per tier
// leave nothing to wire below that.
const hierMinRouters = 8

// Per-tier PoP sizes and model rotations. The gateway (position 0) is the
// member with the richest internal port budget — it terminates the chain,
// the intra-PoP ring closure, and the inter-tier uplinks.
const (
	accessPopSize = 6
	metroPopSize  = 4
	corePopSize   = 4
)

var (
	accessGatewayModel = "ASR-920-24SZ-M"
	accessMemberModels = []string{"N540-24Z8Q2C-M", "ASR-920-24SZ-M", "N540X-8Z16G-SYS-A", "ASR-920-24SZ-M", "N540-24Z8Q2C-M"}
	metroGatewayModel  = "NCS-55A1-24H"
	metroMemberModels  = []string{"ASR-9001", "NCS-55A1-24Q6H-SS", "NCS-55A1-48Q6H"}
	coreGatewayModel   = "8201-32FH"
	coreMemberModels   = []string{"Nexus9336-FX2", "8201-24H8FH", "8201-32FH"}
)

// hierPop is one point of presence under construction.
type hierPop struct {
	name string
	tier string
	// sizeHint is the member count splitPops assigned; routers is filled
	// to that size by deployment.
	sizeHint int
	routers  []*Router
	// demand is the per-cohort mean traffic (bit/s) the PoP aggregates
	// toward the core: its own external demand plus, for metro and core
	// PoPs, the demand of every PoP homed beneath it.
	demand [trafficgen.NumCohorts]float64
}

// buildHierarchy generates the hierarchical fleet for cfg. It is the
// Config.Routers != NumRouters arm of Build.
func buildHierarchy(cfg Config) (*Network, error) {
	if cfg.Routers < hierMinRouters {
		return nil, fmt.Errorf("ispnet: hierarchical fleet needs ≥ %d routers, got %d", hierMinRouters, cfg.Routers)
	}
	n := &Network{
		Config:  cfg,
		diurnal: trafficgen.DefaultDiurnal(),
		byName:  make(map[string]*Router, cfg.Routers),
		specs:   make(map[string]device.ModelSpec),
		hier:    true,
	}

	// Tier split, proportional to the calibrated fleet's model mix.
	nCore, nMetro, nAccess, err := tierSplit(cfg.Routers)
	if err != nil {
		return nil, err
	}

	corePops := splitPops("c", "core", nCore, corePopSize)
	metroPops := splitPops("m", "metro", nMetro, metroPopSize)
	accessPops := splitPops("a", "access", nAccess, accessPopSize)

	// Instantiate routers tier by tier, core outward, so router indices —
	// and with them device seeds and noise keys — depend only on
	// (Routers, Seed).
	plan := fleetPlan()
	idx := 0
	deployPop := func(p *hierPop, size int, gatewayModel string, memberModels []string) error {
		for j := 0; j < size; j++ {
			modelName := gatewayModel
			if j > 0 {
				modelName = memberModels[(j-1)%len(memberModels)]
			}
			spec, ok := n.specs[modelName]
			if !ok {
				s, err := device.Spec(modelName)
				if err != nil {
					return err
				}
				n.specs[modelName] = s
				spec = s
			}
			name := fmt.Sprintf("%s-r%d", p.name, j)
			r := &Router{Name: name, PoP: p.name, Tier: p.tier, Model: modelName}
			if err := n.deployHier(r, spec, plan[modelName], p.tier, idx); err != nil {
				return fmt.Errorf("deploy %s: %w", name, err)
			}
			n.Routers = append(n.Routers, r)
			n.byName[name] = r
			p.routers = append(p.routers, r)
			idx++
		}
		return nil
	}
	for _, tier := range []struct {
		pops    []*hierPop
		gateway string
		members []string
	}{
		{corePops, coreGatewayModel, coreMemberModels},
		{metroPops, metroGatewayModel, metroMemberModels},
		{accessPops, accessGatewayModel, accessMemberModels},
	} {
		for _, p := range tier.pops {
			if err := deployPop(p, p.sizeHint, tier.gateway, tier.members); err != nil {
				return nil, fmt.Errorf("ispnet: %w", err)
			}
		}
	}

	if err := n.wireHierarchy(corePops, metroPops, accessPops); err != nil {
		return nil, err
	}
	for _, r := range n.Routers {
		for i := range r.Interfaces {
			n.subscribers += int64(r.Interfaces[i].Subscribers)
		}
	}
	return n, nil
}

// tierMin is the per-tier connectivity minimum: one router to terminate
// the required uplinks/ring links plus one for the redundant path.
const tierMin = 2

// tierSplit apportions the fleet into core/metro/access counts
// proportional to the calibrated network's 19/32/56 model mix. The split
// is exact by construction — largest-remainder apportionment, so the
// three tiers always sum to routers — and every tier is then topped up to
// its connectivity minimum from the largest tier. (The former independent
// math.Round calls could overdraw the access remainder at small or
// awkward sizes; at the sizes the suite exercises — 240, 1k, 10k — the
// apportionment reproduces the rounded split bit for bit.)
func tierSplit(routers int) (nCore, nMetro, nAccess int, err error) {
	if routers < hierMinRouters {
		return 0, 0, 0, fmt.Errorf("ispnet: hierarchical fleet needs ≥ %d routers, got %d", hierMinRouters, routers)
	}
	weights := [3]float64{19, 32, 56} // core, metro, access
	var counts [3]int
	var rem [3]float64
	total := 0
	for i, w := range weights {
		q := float64(routers) * w / 107.0
		counts[i] = int(q)
		rem[i] = q - float64(counts[i])
		total += counts[i]
	}
	// Hand the flooring leftovers (at most two) to the largest fractional
	// remainders; ties break toward the core so the order is fixed.
	for total < routers {
		best := 0
		for i := 1; i < len(counts); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		total++
	}
	// Top up any tier below its connectivity minimum from the largest
	// tier. With routers ≥ hierMinRouters = 8 the largest tier always has
	// slack: the quotas sum to routers and access alone holds > half.
	for i := range counts {
		for counts[i] < tierMin {
			big := 0
			for j := 1; j < len(counts); j++ {
				if counts[j] > counts[big] {
					big = j
				}
			}
			counts[big]--
			counts[i]++
		}
	}
	return counts[0], counts[1], counts[2], nil
}

// splitPops partitions count routers into PoPs of at most per members,
// sizes as even as possible, every PoP non-empty.
func splitPops(prefix, tier string, count, per int) []*hierPop {
	numPops := (count + per - 1) / per
	base := count / numPops
	extra := count % numPops
	pops := make([]*hierPop, numPops)
	for i := range pops {
		size := base
		if i < extra {
			size++
		}
		pops[i] = &hierPop{
			name:     fmt.Sprintf("%s%05d", prefix, i),
			tier:     tier,
			sizeHint: size,
		}
	}
	return pops
}

// deployHier populates one hierarchical router from its model template.
// It mirrors the calibrated deploy() — same groups, same spare
// discipline, same ±40 % utilization spread — but the spread comes from
// the interface's structural noise key (not the shared build rng, whose
// consumption order would couple distant routers), and the mean load is
// expressed as per-cohort subscriber demand:
//
//   - access external interfaces home subscriber populations sized to the
//     template's target utilization;
//   - metro/core external interfaces carry the same target as a wholesale
//     (transit/peering) aggregate;
//   - internal interfaces get a provisional wholesale load standing in
//     for locally attached infrastructure; wiring overwrites it on every
//     interface that becomes an inter-router link.
func (n *Network) deployHier(r *Router, spec device.ModelSpec, tpl deployTemplate, tier string, routerIdx int) error {
	take := portTaker(spec)
	r.Interfaces = make([]Interface, 0, tpl.ports())
	for _, grp := range tpl.groups {
		key := model.ProfileKey{Port: spec.PortType, Transceiver: grp.trx, Speed: grp.speed}
		for i := 0; i < grp.n; i++ {
			ifName, err := take(key)
			if err != nil {
				return err
			}
			noise := ifaceNoiseKey(routerIdx, len(r.Interfaces))
			// ±40 % spread around the template utilization, as deploy()
			// applies, but keyed structurally.
			spread := 0.6 + 0.8*keyFloat(noise, n.Config.Seed)
			target := grp.utilization * spread * grp.speed.BitsPerSecond()
			var sub [trafficgen.NumCohorts]float64
			subs := 0
			if grp.external && tier == "access" {
				counts, demand := trafficgen.SubscribersFor(units.BitRate(target))
				sub = demand
				subs = counts[trafficgen.Residential] + counts[trafficgen.Business] + counts[trafficgen.Wholesale]
			} else {
				sub[trafficgen.Wholesale] = target
			}
			r.Interfaces = append(r.Interfaces, Interface{
				Name:        ifName,
				Profile:     key,
				External:    grp.external,
				MeanLoad:    units.BitRate(sub[0] + sub[1] + sub[2]),
				Subscribers: subs,
				SubDemand:   sub,
				noiseKey:    noise,
			})
		}
	}
	for i := 0; i < tpl.spares && len(tpl.groups) > 0; i++ {
		grp := tpl.groups[tpl.spareGroupIndex()]
		key := model.ProfileKey{Port: spec.PortType, Transceiver: grp.trx, Speed: grp.speed}
		ifName, err := take(key)
		if err != nil {
			return err
		}
		r.Interfaces = append(r.Interfaces, Interface{
			Name:     ifName,
			Profile:  key,
			Spare:    true,
			noiseKey: ifaceNoiseKey(routerIdx, len(r.Interfaces)),
		})
	}
	return nil
}

// keyFloat maps a structural key and the build seed to a uniform [0, 1)
// double — the rng-free spread source of the hierarchical deploy.
func keyFloat(key uint64, seed int64) float64 {
	return float64(mixKey(key, seed)>>11) / (1 << 53)
}

// wireHierarchy builds the inter-router links: intra-PoP chains with ring
// closures, dual-homed access→metro and metro→core uplinks, and the core
// gateway ring with chords. Link demand is propagated bottom-up so every
// uplink carries the cohort aggregate of the demand below it.
func (n *Network) wireHierarchy(corePops, metroPops, accessPops []*hierPop) error {
	// Free internal (non-spare) interface indices per router, in port order.
	free := make(map[string][]int, len(n.Routers))
	for _, r := range n.Routers {
		for i := range r.Interfaces {
			itf := &r.Interfaces[i]
			if !itf.External && !itf.Spare {
				free[r.Name] = append(free[r.Name], i)
			}
		}
	}
	// pair links the next free internal interface of each end and installs
	// the given cohort demand on the link, clamped to half the slower
	// end's line rate (cohort mix preserved).
	pair := func(a, b *Router, d [trafficgen.NumCohorts]float64) bool {
		if a == b {
			return false
		}
		fa, fb := free[a.Name], free[b.Name]
		if len(fa) == 0 || len(fb) == 0 {
			return false
		}
		ai, bi := &a.Interfaces[fa[0]], &b.Interfaces[fb[0]]
		free[a.Name], free[b.Name] = fa[1:], fb[1:]
		ai.PeerRouter, ai.PeerInterface = b.Name, bi.Name
		bi.PeerRouter, bi.PeerInterface = a.Name, ai.Name
		tot := d[0] + d[1] + d[2]
		if lim := 0.5 * math.Min(ai.Profile.Speed.BitsPerSecond(), bi.Profile.Speed.BitsPerSecond()); tot > lim && tot > 0 {
			scale := lim / tot
			for c := range d {
				d[c] *= scale
			}
			tot = lim
		}
		ai.SubDemand, bi.SubDemand = d, d
		ai.MeanLoad, bi.MeanLoad = units.BitRate(tot), units.BitRate(tot)
		return true
	}

	// extDemand is the cohort demand a router injects (its external
	// interfaces); homed accumulates demand terminated on a router by
	// uplinks from the tier below.
	extDemand := func(r *Router) (d [trafficgen.NumCohorts]float64) {
		for i := range r.Interfaces {
			itf := &r.Interfaces[i]
			if itf.External && !itf.Spare {
				for c := range d {
					d[c] += itf.SubDemand[c]
				}
			}
		}
		return d
	}
	homed := make(map[*Router][trafficgen.NumCohorts]float64)

	// wirePop chains the PoP members in order and closes a best-effort
	// ring; chain link i→i+1 carries everything that funnels from the
	// tail of the chain toward the gateway at position 0.
	wirePop := func(p *hierPop) {
		rs := p.routers
		agg := make([][trafficgen.NumCohorts]float64, len(rs)+1)
		for i := len(rs) - 1; i >= 0; i-- {
			agg[i] = agg[i+1]
			d := extDemand(rs[i])
			h := homed[rs[i]]
			for c := range agg[i] {
				agg[i][c] += d[c] + h[c]
			}
		}
		p.demand = agg[0]
		for i := 0; i+1 < len(rs); i++ {
			pair(rs[i], rs[i+1], agg[i+1])
		}
		if len(rs) >= 3 {
			pair(rs[len(rs)-1], rs[0], scaleDemand(p.demand, 0.25))
		}
	}

	// uplink dual-homes a PoP gateway (and deputy, when the PoP has one)
	// into the parent PoP: the first termination is required — it is what
	// keeps the fleet connected — the second is redundancy, best-effort.
	// Each uplink link is sized to half the child's aggregate; the full
	// aggregate is accounted upstream either way.
	uplink := func(child *hierPop, parent *hierPop, k int, deputy bool) error {
		gw := child.routers[0]
		half := scaleDemand(child.demand, 0.5)
		t1 := parent.routers[(2*k)%len(parent.routers)]
		if !pair(gw, t1, half) {
			ok := false
			for _, m := range parent.routers {
				if pair(gw, m, half) {
					t1, ok = m, true
					break
				}
			}
			if !ok {
				return fmt.Errorf("ispnet: no free %s port terminates %s", parent.name, child.name)
			}
		}
		src := gw
		if deputy && len(child.routers) > 1 {
			src = child.routers[1]
		}
		if t2 := parent.routers[(2*k+1)%len(parent.routers)]; t2 != t1 && pair(src, t2, half) {
			addDemand(homed, t1, half)
			addDemand(homed, t2, half)
		} else {
			addDemand(homed, t1, child.demand)
		}
		return nil
	}

	// Bottom-up: access PoPs first (their demand is fixed by deployment),
	// then their uplinks feed the metro aggregates, and so on to the core.
	for _, p := range accessPops {
		wirePop(p)
	}
	for k, p := range accessPops {
		if err := uplink(p, metroPops[k%len(metroPops)], k, false); err != nil {
			return err
		}
	}
	for _, p := range metroPops {
		wirePop(p)
	}
	for k, p := range metroPops {
		if err := uplink(p, corePops[k%len(corePops)], k, true); err != nil {
			return err
		}
		if len(corePops) > 1 {
			// Second core PoP: metro dual-homes across PoPs, not just
			// across routers — a whole core PoP can fail.
			second := corePops[(k+1)%len(corePops)]
			if pair(p.routers[0], second.routers[k%len(second.routers)], scaleDemand(p.demand, 0.25)) {
				addDemand(homed, second.routers[k%len(second.routers)], scaleDemand(p.demand, 0.25))
			}
		}
	}
	for _, p := range corePops {
		wirePop(p)
	}

	// Core backbone: gateway ring plus chords every fourth PoP. The ring
	// links are required — they are what joins the core PoPs (and through
	// them everything else) into one component.
	if len(corePops) > 1 {
		var fleet [trafficgen.NumCohorts]float64
		for _, p := range corePops {
			for c := range fleet {
				fleet[c] += p.demand[c]
			}
		}
		ringShare := scaleDemand(fleet, 1/float64(2*len(corePops)))
		for i, p := range corePops {
			q := corePops[(i+1)%len(corePops)]
			if !ringLink(pair, p, q, ringShare) {
				return fmt.Errorf("ispnet: core ring cannot link %s to %s", p.name, q.name)
			}
			if i%4 == 0 && len(corePops) > 4 {
				far := corePops[(i+len(corePops)/2)%len(corePops)]
				pair(p.routers[0], far.routers[0], scaleDemand(ringShare, 0.5))
			}
		}
	}
	return nil
}

// ringLink joins two core PoPs, preferring their gateways and falling
// back over every member pair before giving up.
func ringLink(pair func(a, b *Router, d [trafficgen.NumCohorts]float64) bool, p, q *hierPop, d [trafficgen.NumCohorts]float64) bool {
	if pair(p.routers[0], q.routers[0], d) {
		return true
	}
	for _, a := range p.routers {
		for _, b := range q.routers {
			if pair(a, b, d) {
				return true
			}
		}
	}
	return false
}

// scaleDemand returns d scaled by f.
func scaleDemand(d [trafficgen.NumCohorts]float64, f float64) [trafficgen.NumCohorts]float64 {
	for c := range d {
		d[c] *= f
	}
	return d
}

// addDemand accumulates d onto m[r].
func addDemand(m map[*Router][trafficgen.NumCohorts]float64, r *Router, d [trafficgen.NumCohorts]float64) {
	cur := m[r]
	for c := range cur {
		cur[c] += d[c]
	}
	m[r] = cur
}
