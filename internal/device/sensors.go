package device

import (
	"fmt"

	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/units"
)

// pseudoConstantSnapThreshold is how far the true input power must move
// before a pseudo-constant sensor re-snaps to it. The Fig. 4b trace shows
// exactly this: long flat segments with sharp jumps.
const pseudoConstantSnapThreshold = 8 // watts

// ErrNoPowerSensor is returned for router models that do not report PSU
// power at all (the Fig. 4c router).
var ErrNoPowerSensor = fmt.Errorf("device: model does not report PSU power")

// ReportedPSUPower returns what the router itself claims PSU index draws
// from the wall — the value an SNMP poller would collect. Depending on the
// model this is accurate, offset, pseudo-constant, or unavailable
// (ErrNoPowerSensor). Reading the sensor samples the electrical state.
func (r *Router) ReportedPSUPower(index int) (units.Power, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if index < 0 || index >= len(r.psus) {
		return 0, fmt.Errorf("device: %s has no PSU %d", r.name, index)
	}
	if r.spec.PSUSensor == SensorNone {
		return 0, ErrNoPowerSensor
	}
	r.wallPowerLocked() // refresh lastIn/lastOut
	p := &r.psus[index]
	switch r.spec.PSUSensor {
	case SensorAccurate:
		return p.lastIn + units.Power(r.rng.NormFloat64()*0.5), nil
	case SensorOffset:
		return p.lastIn + units.Power(r.spec.PSUSensorOffset.Watts()/float64(len(r.psus))) +
			units.Power(r.rng.NormFloat64()*0.3), nil
	case SensorPseudoConstant:
		truth := p.lastIn
		if !p.heldValid || absW(truth-p.held) > pseudoConstantSnapThreshold {
			p.held = units.Power(float64(int(truth.Watts() + 0.5)))
			p.heldValid = true
		}
		return p.held, nil
	}
	return 0, fmt.Errorf("device: unknown sensor behaviour %v", r.spec.PSUSensor)
}

// ReportedTotalPower sums the reported power of all PSUs. It returns
// ErrNoPowerSensor for models without sensors.
func (r *Router) ReportedTotalPower() (units.Power, error) {
	var total units.Power
	for i := 0; i < r.PSUCount(); i++ {
		p, err := r.ReportedPSUPower(i)
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total, nil
}

// PowerCycle simulates unplugging and re-plugging PSU index (as happens
// when an Autopower meter is installed, §6.2). Pseudo-constant sensors
// re-baseline on power-up and may report a different value afterwards —
// the unexplained 7 W step of Fig. 4b.
func (r *Router) PowerCycle(index int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if index < 0 || index >= len(r.psus) {
		return fmt.Errorf("device: %s has no PSU %d", r.name, index)
	}
	p := &r.psus[index]
	if r.spec.PSUSensor == SensorPseudoConstant {
		r.wallPowerLocked()
		// Re-baseline with a sensor-calibration shift of a few watts.
		shift := units.Power(r.rng.NormFloat64() * 4)
		p.held = units.Power(float64(int(p.lastIn.Watts() + shift.Watts() + 0.5)))
		p.heldValid = true
	}
	return nil
}

// EnvSnapshot exports the environment-sensor view of every PSU: input and
// output power with sensor noise, plus the rated capacity. This is the
// one-time export the paper's §9 analysis builds on. The readings of the
// two directions are taken asynchronously, so a lightly loaded PSU can
// report Pout > Pin — physically impossible, present in the real dataset,
// and deliberately reproduced here.
func (r *Router) EnvSnapshot() []psu.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wallPowerLocked()
	out := make([]psu.Snapshot, 0, len(r.psus))
	for i := range r.psus {
		p := &r.psus[i]
		if !p.online {
			out = append(out, psu.Snapshot{Capacity: p.capacity})
			continue
		}
		noiseIn := 1 + r.rng.NormFloat64()*0.015
		noiseOut := 1 + r.rng.NormFloat64()*0.015
		out = append(out, psu.Snapshot{
			Pin:      units.Power(p.lastIn.Watts() * noiseIn),
			Pout:     units.Power(p.lastOut.Watts() * noiseOut),
			Capacity: p.capacity,
		})
	}
	return out
}

func absW(p units.Power) units.Power {
	if p < 0 {
		return -p
	}
	return p
}
