package optimizer

import (
	"fantasticjoules/internal/hypnos"
	"fantasticjoules/internal/ispnet"
)

// Rig is the scale-agnostic control rig for one fleet config: the
// retained (incrementally resimulable) fleet the controller actuates,
// plus the observation plane — hypnos topology and per-link traffic —
// derived from the fleet's pristine network. The derivation works
// for any ispnet.Config: the calibrated 107-router build and generated
// hierarchical fleets alike (hypnos.FromNetwork walks whatever internal
// links the network has), so "run the closed loop at N routers" is one
// NewRig call away instead of a hand-wired quartet.
type Rig struct {
	Fleet   *ispnet.Fleet
	Topo    hypnos.Topology
	Traffic hypnos.TrafficFunc
}

// NewRig builds the fleet and derives its observation plane. The
// topology and traffic come from the fleet's pristine network (the
// routers as Build made them, before any event) — not the retained
// (mutated) network — so the observed load model stays independent of
// the controller's own actuation.
func NewRig(cfg ispnet.Config) (*Rig, error) {
	fleet, err := ispnet.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	topo, traffic, err := hypnos.FromNetwork(fleet.Pristine())
	if err != nil {
		return nil, err
	}
	return &Rig{Fleet: fleet, Topo: topo, Traffic: traffic}, nil
}

// Apply folds a scenario's environment into the rig: its events are
// perturbed and resimulated into the fleet — becoming part of the no-op
// baseline every saving is measured against — and its traffic wrapper
// (if any) reshapes the observed view. Apply before Controller; wire
// the scenario's Down into the controller's Config yourself (it is a
// Config knob, not fleet state).
func (r *Rig) Apply(sc *Scenario) error {
	if sc == nil {
		return nil
	}
	if len(sc.Events) > 0 {
		if err := r.Fleet.Perturb(sc.Events...); err != nil {
			return err
		}
		if _, err := r.Fleet.Resimulate(); err != nil {
			return err
		}
	}
	if sc.WrapTraffic != nil {
		r.Traffic = sc.WrapTraffic(r.Traffic)
	}
	return nil
}

// Controller wires a controller to the rig's fleet and observation
// plane; cfg validates as in New.
func (r *Rig) Controller(cfg Config) (*Controller, error) {
	return New(r.Fleet, r.Topo, r.Traffic, cfg)
}
