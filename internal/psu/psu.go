// Package psu models power supply unit (PSU) conversion efficiency and the
// PSU-level energy-saving analyses of §9 of the paper.
//
// A PSU converts outlet AC into the DC voltage a router needs. The
// conversion efficiency η = Pout/Pin depends on the load (Pout divided by
// the PSU's capacity): it is poor below 10–20 % load, peaks around 50–60 %,
// and declines slightly toward full load. The paper anchors all of its PSU
// reasoning on one published curve — the Platinum-rated PFE600-12-054xA
// found in the EdgeCore Wedge 100BF-32X (Fig. 5) — and models every other
// PSU as that curve plus a constant offset fitted from a single measured
// (load, efficiency) point.
package psu

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fantasticjoules/internal/units"
)

// CurvePoint is one (load, efficiency) sample of an efficiency curve. Load
// and Efficiency are fractions in [0, 1].
type CurvePoint struct {
	Load       float64
	Efficiency float64
}

// Curve is a piecewise-linear PSU efficiency curve over load fraction.
type Curve struct {
	pts []CurvePoint
}

// NewCurve builds a curve from points, which are copied and sorted by load.
// At least one point is required; efficiencies must lie in (0, 1].
func NewCurve(pts []CurvePoint) (Curve, error) {
	if len(pts) == 0 {
		return Curve{}, errors.New("psu: curve needs at least one point")
	}
	cp := make([]CurvePoint, len(pts))
	copy(cp, pts)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Load < cp[j].Load })
	for _, p := range cp {
		if p.Efficiency <= 0 || p.Efficiency > 1 {
			return Curve{}, fmt.Errorf("psu: efficiency %v out of (0,1]", p.Efficiency)
		}
		if p.Load < 0 || p.Load > 1 {
			return Curve{}, fmt.Errorf("psu: load %v out of [0,1]", p.Load)
		}
	}
	return Curve{pts: cp}, nil
}

// Efficiency returns the interpolated efficiency at the given load
// fraction. Loads outside the sampled range are clamped to the nearest
// endpoint; the returned efficiency is always in (0, 1].
func (c Curve) Efficiency(load float64) float64 {
	if len(c.pts) == 0 {
		return 1 // zero-value curve behaves as a lossless supply
	}
	if load <= c.pts[0].Load {
		return c.pts[0].Efficiency
	}
	last := c.pts[len(c.pts)-1]
	if load >= last.Load {
		return last.Efficiency
	}
	// Hand-rolled binary search: sort.Search takes a func value, and the
	// capturing closure would heap-allocate on every wall-power sample.
	i, j := 0, len(c.pts)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if c.pts[mid].Load < load {
			i = mid + 1
		} else {
			j = mid
		}
	}
	lo, hi := c.pts[i-1], c.pts[i]
	frac := (load - lo.Load) / (hi.Load - lo.Load)
	return lo.Efficiency + frac*(hi.Efficiency-lo.Efficiency)
}

// Offset returns the curve shifted by a constant efficiency delta, clamped
// to (0, 1]. This implements the paper's "PFE600 plus a constant offset"
// model for unknown PSUs.
func (c Curve) Offset(delta float64) Curve {
	return c.OffsetInto(Curve{pts: make([]CurvePoint, len(c.pts))}, delta)
}

// OffsetInto is Offset writing the shifted points into dst's storage when
// it has room for them, so a recycled owner re-derives its curve without
// allocating. dst must not be used afterwards.
func (c Curve) OffsetInto(dst Curve, delta float64) Curve {
	out := Curve{pts: dst.pts[:0]}
	if cap(out.pts) < len(c.pts) {
		out.pts = make([]CurvePoint, len(c.pts))
	}
	out.pts = out.pts[:len(c.pts)]
	for i, p := range c.pts {
		e := p.Efficiency + delta
		if e > 1 {
			e = 1
		}
		if e < 0.01 {
			e = 0.01
		}
		out.pts[i] = CurvePoint{Load: p.Load, Efficiency: e}
	}
	return out
}

// Points returns a copy of the curve's samples in load order.
func (c Curve) Points() []CurvePoint {
	out := make([]CurvePoint, len(c.pts))
	copy(out, c.pts)
	return out
}

// PFE600 returns the efficiency curve of the Platinum-rated
// PFE600-12-054xA, redrawn from its datasheet as in Fig. 5 of the paper:
// a steep rise out of light load, a peak of ≈94 % near 50–60 % load, and a
// slight decline toward full load.
func PFE600() Curve {
	c, err := NewCurve([]CurvePoint{
		{0.02, 0.70},
		{0.05, 0.825},
		{0.10, 0.885},
		{0.20, 0.925},
		{0.30, 0.936},
		{0.40, 0.940},
		{0.50, 0.942},
		{0.60, 0.942},
		{0.80, 0.936},
		{1.00, 0.925},
	})
	if err != nil {
		panic("psu: invalid built-in PFE600 curve: " + err.Error())
	}
	return c
}

// Rating is an 80 Plus certification level.
type Rating int

// The 80 Plus levels used by the paper (Table 3). The plain 80 Plus level
// is omitted, matching the paper.
const (
	Bronze Rating = iota
	Silver
	Gold
	Platinum
	Titanium
)

// Ratings lists all levels from Bronze to Titanium in ascending order.
func Ratings() []Rating { return []Rating{Bronze, Silver, Gold, Platinum, Titanium} }

// String returns the level name, e.g. "Platinum".
func (r Rating) String() string {
	switch r {
	case Bronze:
		return "Bronze"
	case Silver:
		return "Silver"
	case Gold:
		return "Gold"
	case Platinum:
		return "Platinum"
	case Titanium:
		return "Titanium"
	}
	return fmt.Sprintf("Rating(%d)", int(r))
}

// SetPoints returns the minimum efficiencies a PSU must reach at the
// standard's load points to be certified (115 V internal, non-redundant —
// the variant plotted in Fig. 5). Titanium adds a 10 %-load requirement.
func (r Rating) SetPoints() []CurvePoint {
	switch r {
	case Bronze:
		return []CurvePoint{{0.20, 0.82}, {0.50, 0.85}, {1.00, 0.82}}
	case Silver:
		return []CurvePoint{{0.20, 0.85}, {0.50, 0.88}, {1.00, 0.85}}
	case Gold:
		return []CurvePoint{{0.20, 0.87}, {0.50, 0.90}, {1.00, 0.87}}
	case Platinum:
		return []CurvePoint{{0.20, 0.90}, {0.50, 0.92}, {1.00, 0.89}}
	case Titanium:
		return []CurvePoint{{0.10, 0.90}, {0.20, 0.92}, {0.50, 0.94}, {1.00, 0.90}}
	}
	return nil
}

// StandardCurve returns the theoretical efficiency curve of a PSU that just
// meets the given 80 Plus level, following the paper's method: the PFE600
// curve shifted by the smallest constant that satisfies every set point of
// the standard. The shift may be negative (the PFE600 is itself Platinum
// rated, so the Bronze curve lies below it).
func StandardCurve(r Rating) Curve {
	base := PFE600()
	shift := math.Inf(-1)
	for _, sp := range r.SetPoints() {
		d := sp.Efficiency - base.Efficiency(sp.Load)
		if d > shift {
			shift = d
		}
	}
	return base.Offset(shift)
}

// Snapshot is a one-time reading of a PSU's electrical state, as exported
// by the router's environment sensors (§9.2): input power, output power,
// and the PSU's rated capacity.
type Snapshot struct {
	// Pin is the AC power drawn from the outlet.
	Pin units.Power
	// Pout is the DC power delivered to the router.
	Pout units.Power
	// Capacity is the maximum power the PSU can deliver.
	Capacity units.Power
}

// Load returns the PSU load fraction Pout/Capacity, or 0 for a zero
// capacity.
func (s Snapshot) Load() float64 {
	if s.Capacity <= 0 {
		return 0
	}
	return s.Pout.Watts() / s.Capacity.Watts()
}

// Efficiency returns Pout/Pin capped at 1, following §9.2: some sensors
// report Pout > Pin, which is physically impossible and is capped at 100 %.
// A zero Pin yields 0.
func (s Snapshot) Efficiency() float64 {
	if s.Pin <= 0 {
		return 0
	}
	e := s.Pout.Watts() / s.Pin.Watts()
	if e > 1 {
		return 1
	}
	return e
}

// FitOffset returns the constant offset that places the PFE600 curve
// through this snapshot's (load, efficiency) point — the paper's per-PSU
// curve estimate.
func (s Snapshot) FitOffset() float64 {
	return s.Efficiency() - PFE600().Efficiency(s.Load())
}

// Curve returns the snapshot's estimated efficiency curve (PFE600 shifted
// through the measured point).
func (s Snapshot) Curve() Curve {
	return PFE600().Offset(s.FitOffset())
}

// Unit is a simulated PSU used by the device simulator: a capacity plus an
// efficiency curve. The zero value is unusable; build units with NewUnit.
type Unit struct {
	capacity units.Power
	curve    Curve
}

// NewUnit returns a PSU with the given capacity and curve. Capacity must be
// positive.
func NewUnit(capacity units.Power, curve Curve) (*Unit, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("psu: non-positive capacity %v", capacity)
	}
	return &Unit{capacity: capacity, curve: curve}, nil
}

// Capacity returns the PSU's rated output capacity.
func (u *Unit) Capacity() units.Power { return u.capacity }

// Curve returns the PSU's efficiency curve.
func (u *Unit) Curve() Curve { return u.curve }

// EfficiencyAt returns the conversion efficiency when delivering the given
// output power.
func (u *Unit) EfficiencyAt(out units.Power) float64 {
	return u.curve.Efficiency(out.Watts() / u.capacity.Watts())
}

// InputFor returns the AC input power the PSU draws to deliver the given DC
// output power. Output beyond capacity is still converted (real supplies
// brown out instead, but the simulator never drives them there).
func (u *Unit) InputFor(out units.Power) units.Power {
	if out <= 0 {
		// Real supplies draw a small standby power even with no load; that
		// is captured by evaluating the curve at zero load on a tiny
		// residual draw.
		return 0
	}
	return units.Power(out.Watts() / u.EfficiencyAt(out))
}
