package device

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fantasticjoules/internal/model"
	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/units"
)

// SensorBehavior classifies how a router's PSUs report their own power —
// the paper finds this varies wildly between models (§6.2, Q2).
type SensorBehavior int

const (
	// SensorAccurate reports the true input power with small noise.
	SensorAccurate SensorBehavior = iota
	// SensorOffset reports the true shape with a constant offset — the
	// Fig. 4a behaviour ("precise but not accurate").
	SensorOffset
	// SensorPseudoConstant reports a stale held value with occasional
	// re-snaps, and shifts at power cycles — the Fig. 4b behaviour.
	SensorPseudoConstant
	// SensorNone means the model does not report PSU power at all — the
	// Fig. 4c router.
	SensorNone
)

// String names the behaviour.
func (s SensorBehavior) String() string {
	switch s {
	case SensorAccurate:
		return "accurate"
	case SensorOffset:
		return "offset"
	case SensorPseudoConstant:
		return "pseudo-constant"
	case SensorNone:
		return "none"
	}
	return fmt.Sprintf("SensorBehavior(%d)", int(s))
}

// ModelSpec is the hidden ground truth for one router hardware model: the
// physical parameters the simulation draws power from. The modeling
// methodology never reads a ModelSpec; it only measures routers built from
// one.
type ModelSpec struct {
	// Name is the hardware model, e.g. "8201-32FH".
	Name string

	// NumPorts is the number of physical ports; PortType their cage type.
	NumPorts int
	PortType model.PortType

	// Truth holds the true DC-side per-interface power terms by profile.
	Truth map[model.ProfileKey]model.InterfaceProfile

	// PBaseDC is the DC power of the chassis electronics with no ports
	// configured, excluding fans and control plane.
	PBaseDC units.Power
	// FanBasePower is fan power at 25 °C; FanTempCoeff adds W per °C above.
	FanBasePower units.Power
	FanTempCoeff float64
	// ControlPlanePower is the route-processor draw.
	ControlPlanePower units.Power
	// PowerJitter is the standard deviation of the zero-mean churn added
	// to every wall-power sample.
	PowerJitter units.Power

	// PSU configuration.
	PSUCount    int
	PSUCapacity units.Power
	PSUCurve    psu.Curve
	// PSUEfficiencyBias shifts every unit's curve (model-level quality);
	// PSUEfficiencySpread is the stddev of per-unit variation around it.
	PSUEfficiencyBias   float64
	PSUEfficiencySpread float64

	// PSUSensor selects the power-report behaviour; PSUSensorOffset is the
	// constant error applied by SensorOffset.
	PSUSensor       SensorBehavior
	PSUSensorOffset units.Power

	// OSFanRegression maps OS versions to extra fan draw (the Fig. 8
	// +45 W event).
	OSFanRegression  map[string]units.Power
	InitialOSVersion string

	// Slots and Linecards describe a modular chassis (the §4.3 Plinecard
	// extension); zero Slots means a fixed chassis.
	Slots     int
	Linecards []LinecardType

	// ThermalTimeConstant and ThermalResistance optionally couple the
	// chassis temperature to its own dissipation: the internal
	// temperature approaches ambient + R·Pdc with the given time
	// constant, and the fans react to it (a §4.3 omitted factor the
	// model folds into Pbase). Zero time constant disables coupling.
	ThermalTimeConstant time.Duration
	ThermalResistance   float64 // °C per DC watt

	// Datasheet values, for the §3 analyses. Zero means "not stated".
	DatasheetTypical   units.Power
	DatasheetMax       units.Power
	DatasheetBandwidth units.BitRate
	ReleaseYear        int
}

func (s ModelSpec) validate() error {
	var errs []error
	if s.Name == "" {
		errs = append(errs, errors.New("spec needs a name"))
	}
	if s.NumPorts <= 0 {
		errs = append(errs, fmt.Errorf("spec %s: non-positive port count %d", s.Name, s.NumPorts))
	}
	if s.PSUCount <= 0 {
		errs = append(errs, fmt.Errorf("spec %s: needs at least one PSU", s.Name))
	}
	if s.PSUCapacity <= 0 {
		errs = append(errs, fmt.Errorf("spec %s: non-positive PSU capacity", s.Name))
	}
	if s.PBaseDC < 0 {
		errs = append(errs, fmt.Errorf("spec %s: negative base power", s.Name))
	}
	if len(s.Truth) == 0 {
		errs = append(errs, fmt.Errorf("spec %s: no interface truth profiles", s.Name))
	}
	return errors.Join(errs...)
}

// Supports reports, as an error, whether the model can carry the given
// port/transceiver/speed profile: PlugTransceiver refuses a profile the
// hidden truth does not know, and a deployment planned from the spec
// alone must refuse the same ones.
func (s ModelSpec) Supports(key model.ProfileKey) error {
	if _, ok := s.Truth[key]; !ok {
		return fmt.Errorf("device: %s does not support %s", s.Name, key)
	}
	return nil
}

// PortNames returns the model's interface names in port order — the names
// every device built from the spec carries. The slice is shared by every
// spec with the same port count and must not be modified.
func (s ModelSpec) PortNames() []string { return portsFor(s.NumPorts).names }

// portOnlyTruth returns a profile whose PPort applies when a bare port (no
// transceiver) is admin-up: the first truth profile matching the port type.
func (s ModelSpec) portOnlyTruth(port model.PortType) (model.InterfaceProfile, bool) {
	var keys []model.ProfileKey
	for k := range s.Truth {
		if k.Port == port {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return model.InterfaceProfile{}, false
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	p := s.Truth[keys[0]]
	// Only the port cost applies without a module.
	return model.InterfaceProfile{Key: p.Key, PPort: p.PPort}, true
}

// truthProfile builds a DC-side truth profile by scaling wall-referenced
// published terms with the given conversion factor (wall terms include PSU
// loss; DC terms must not).
func truthProfile(port model.PortType, trx model.TransceiverType, speed units.BitRate,
	pport, ptrxin, ptrxup, ebitPJ, epktNJ, poffset, dcScale float64) model.InterfaceProfile {
	return model.InterfaceProfile{
		Key:     model.ProfileKey{Port: port, Transceiver: trx, Speed: speed},
		PPort:   units.Power(pport * dcScale),
		PTrxIn:  units.Power(ptrxin * dcScale),
		PTrxUp:  units.Power(ptrxup * dcScale),
		EBit:    units.Energy(ebitPJ*dcScale) * units.Picojoule,
		EPkt:    units.Energy(epktNJ*dcScale) * units.Nanojoule,
		POffset: units.Power(poffset * dcScale),
	}
}

// Catalog returns the hidden hardware specs of every router model in the
// simulated fleet: the eight lab-modeled routers of Tables 2 and 6 plus the
// deployment-only models of Table 1. Specs are freshly built on each call;
// mutations do not leak.
func Catalog() map[string]ModelSpec {
	g := units.GigabitPerSecond
	curve := psu.PFE600()
	specs := map[string]ModelSpec{}

	// dcScale converts the paper's wall-referenced terms to DC-side truth
	// at the typical ~92 % lab conversion efficiency.
	const dcScale = 0.92

	// --- Lab routers (Tables 2 and 6) ---

	specs["NCS-55A1-24H"] = ModelSpec{
		Name: "NCS-55A1-24H", NumPorts: 24, PortType: model.QSFP28,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 100 * g}: truthProfile(model.QSFP28, model.PassiveDAC, 100*g, 0.32, 0.02, 0.19, 22, 58, 0.37, dcScale),
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 50 * g}:  truthProfile(model.QSFP28, model.PassiveDAC, 50*g, 0.18, 0.02, 0.16, 21, 57, 0.34, dcScale),
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 25 * g}:  truthProfile(model.QSFP28, model.PassiveDAC, 25*g, 0.10, 0.02, 0.08, 21, 55, 0.21, dcScale),
			{Port: model.QSFP28, Transceiver: model.LR4, Speed: 100 * g}:        truthProfile(model.QSFP28, model.LR4, 100*g, 0.32, 4.1, 0.4, 22, 58, 0.37, dcScale),
		},
		PBaseDC: 225, FanBasePower: 16, FanTempCoeff: 1.2, ControlPlanePower: 10.4,
		PowerJitter: 0.4,
		PSUCount:    2, PSUCapacity: 1100, PSUCurve: curve,
		PSUEfficiencyBias: -0.01, PSUEfficiencySpread: 0.006,
		PSUSensor:        SensorPseudoConstant,
		DatasheetTypical: 600, DatasheetMax: 1000, DatasheetBandwidth: 2.4 * units.TerabitPerSecond,
		ReleaseYear: 2017, InitialOSVersion: "7.3.2",
	}

	specs["Nexus9336-FX2"] = ModelSpec{
		Name: "Nexus9336-FX2", NumPorts: 36, PortType: model.QSFP28,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.QSFP28, Transceiver: model.LR, Speed: 100 * g}:         truthProfile(model.QSFP28, model.LR, 100*g, 1.9, 2.79, -0.06, 8, 24, -0.43, dcScale),
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 100 * g}: truthProfile(model.QSFP28, model.PassiveDAC, 100*g, 1.13, 0.09, -0.02, 8, 26, 0.07, dcScale),
		},
		PBaseDC: 238, FanBasePower: 15, FanTempCoeff: 1.0, ControlPlanePower: 9.2,
		PowerJitter: 0.4,
		PSUCount:    2, PSUCapacity: 1100, PSUCurve: curve,
		PSUEfficiencyBias: -0.02, PSUEfficiencySpread: 0.02,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 429, DatasheetMax: 743, DatasheetBandwidth: 7.2 * units.TerabitPerSecond,
		ReleaseYear: 2018, InitialOSVersion: "9.3.5",
	}

	specs["8201-32FH"] = ModelSpec{
		Name: "8201-32FH", NumPorts: 32, PortType: model.QSFP,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.QSFP, Transceiver: model.PassiveDAC, Speed: 100 * g}: truthProfile(model.QSFP, model.PassiveDAC, 100*g, 0.94, 0.35, 0.21, 3, 13, -0.04, dcScale),
			{Port: model.QSFP, Transceiver: model.FR4, Speed: 400 * g}:        truthProfile(model.QSFP, model.FR4, 400*g, 1.0, 11.0, 1.0, 3, 13, -0.04, dcScale),
		},
		PBaseDC: 180, FanBasePower: 14, FanTempCoeff: 1.5, ControlPlanePower: 6.8,
		PowerJitter: 0.25,
		PSUCount:    2, PSUCapacity: 2000, PSUCurve: curve,
		// Fig. 6c: the 8201-32FH PSUs are 76 % efficient or worse at their
		// ~9 % load points.
		PSUEfficiencyBias: -0.12, PSUEfficiencySpread: 0.012,
		PSUSensor: SensorOffset, PSUSensorOffset: 17,
		OSFanRegression:  map[string]units.Power{"7.11.1": 34},
		InitialOSVersion: "7.9.2",
		DatasheetTypical: 288, DatasheetMax: 1150, DatasheetBandwidth: 12.8 * units.TerabitPerSecond,
		ReleaseYear: 2021,
	}

	specs["N540X-8Z16G-SYS-A"] = ModelSpec{
		Name: "N540X-8Z16G-SYS-A", NumPorts: 24, PortType: model.SFP,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.SFP, Transceiver: model.BaseT, Speed: 1 * g}: truthProfile(model.SFP, model.BaseT, 1*g, 0.0, 3.41, 0.0, 37, 10, 0.01, dcScale),
			{Port: model.SFP, Transceiver: model.LR, Speed: 10 * g}:   truthProfile(model.SFP, model.LR, 10*g, 0.2, 0.9, 0.1, 30, 15, 0.02, dcScale),
		},
		PBaseDC: 22, FanBasePower: 3, FanTempCoeff: 0.3, ControlPlanePower: 3.4,
		PowerJitter: 0.08,
		PSUCount:    2, PSUCapacity: 250, PSUCurve: curve,
		PSUEfficiencyBias: -0.03, PSUEfficiencySpread: 0.02,
		PSUSensor:        SensorNone,
		DatasheetTypical: 0, DatasheetMax: 150, DatasheetBandwidth: 180 * g,
		ReleaseYear: 2019, InitialOSVersion: "7.4.1",
	}

	specs["Wedge100BF-32X"] = ModelSpec{
		Name: "Wedge100BF-32X", NumPorts: 32, PortType: model.QSFP28,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 100 * g}: truthProfile(model.QSFP28, model.PassiveDAC, 100*g, 0.88, 0, 0.69, 1.7, 7.2, 0, dcScale),
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 50 * g}:  truthProfile(model.QSFP28, model.PassiveDAC, 50*g, 0.21, 0, 0.31, 2.5, 5.6, 0.05, dcScale),
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 25 * g}:  truthProfile(model.QSFP28, model.PassiveDAC, 25*g, 0.21, 0, 0.1, 2.7, 4.7, 0.06, dcScale),
		},
		PBaseDC: 82, FanBasePower: 9, FanTempCoeff: 0.8, ControlPlanePower: 8.4,
		PowerJitter: 0.3,
		PSUCount:    2, PSUCapacity: 600, PSUCurve: curve,
		PSUEfficiencyBias: 0.0, PSUEfficiencySpread: 0.01,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 210, DatasheetMax: 480, DatasheetBandwidth: 3.2 * units.TerabitPerSecond,
		ReleaseYear: 2017, InitialOSVersion: "sonic-4.1",
	}

	specs["Nexus93108TC-FX3P"] = ModelSpec{
		Name: "Nexus93108TC-FX3P", NumPorts: 54, PortType: model.RJ45,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.RJ45, Transceiver: model.BaseT, Speed: 10 * g}:         truthProfile(model.RJ45, model.BaseT, 10*g, 2.06, 0.11, 0, 6.7, 16.9, 0.03, dcScale),
			{Port: model.RJ45, Transceiver: model.BaseT, Speed: 1 * g}:          truthProfile(model.RJ45, model.BaseT, 1*g, 0.93, 0.11, 0, 33.8, 18.2, 0.03, dcScale),
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 100 * g}: truthProfile(model.QSFP28, model.PassiveDAC, 100*g, 0.17, 0.11, 0.23, 5.4, 21.2, 0, dcScale),
			{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 40 * g}:  truthProfile(model.QSFP28, model.PassiveDAC, 40*g, 0.07, 0.11, 0.16, 6.5, 17.4, 0.03, dcScale),
		},
		PBaseDC: 115, FanBasePower: 10, FanTempCoeff: 0.7, ControlPlanePower: 10.2,
		PowerJitter: 0.3,
		PSUCount:    2, PSUCapacity: 1100, PSUCurve: curve,
		PSUEfficiencyBias: -0.02, PSUEfficiencySpread: 0.02,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 233, DatasheetMax: 572, DatasheetBandwidth: 2.16 * units.TerabitPerSecond,
		ReleaseYear: 2020, InitialOSVersion: "10.2.3",
	}

	specs["VSP-4900"] = ModelSpec{
		Name: "VSP-4900", NumPorts: 48, PortType: model.SFPP,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.SFPP, Transceiver: model.BaseT, Speed: 10 * g}: truthProfile(model.SFPP, model.BaseT, 10*g, 0.08, 0.06, 0, 25.6, 26.5, 0.04, dcScale),
			{Port: model.SFPP, Transceiver: model.LR, Speed: 10 * g}:    truthProfile(model.SFPP, model.LR, 10*g, 0.08, 0.95, 0.05, 25.6, 26.5, 0.04, dcScale),
		},
		PBaseDC: 4.1, FanBasePower: 1.5, FanTempCoeff: 0.2, ControlPlanePower: 1.9,
		PowerJitter: 0.05,
		PSUCount:    2, PSUCapacity: 250, PSUCurve: curve,
		PSUEfficiencyBias: -0.02, PSUEfficiencySpread: 0.015,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 120, DatasheetMax: 260, DatasheetBandwidth: 680 * g,
		ReleaseYear: 2019, InitialOSVersion: "8.10",
	}

	specs["Catalyst3560"] = ModelSpec{
		Name: "Catalyst3560", NumPorts: 48, PortType: model.RJ45,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.RJ45, Transceiver: model.BaseT, Speed: 0.1 * g}: truthProfile(model.RJ45, model.BaseT, 0.1*g, 0.21, 0, 0, 15.7, 193.1, 0.01, dcScale),
		},
		PBaseDC: 29, FanBasePower: 4, FanTempCoeff: 0.3, ControlPlanePower: 3.8,
		PowerJitter: 0.1,
		PSUCount:    1, PSUCapacity: 250, PSUCurve: curve,
		PSUEfficiencyBias: -0.08, PSUEfficiencySpread: 0.02,
		PSUSensor:        SensorNone,
		DatasheetTypical: 0, DatasheetMax: 110,
		ReleaseYear: 2005, InitialOSVersion: "12.2",
	}

	// --- Deployment-only routers (Table 1) ---
	// No lab models exist for these; their truth profiles reuse the closest
	// lab-modeled sibling, and the base power is calibrated so the deployed
	// median wall power lands near the Table 1 "Measured" column.

	specs["ASR-920-24SZ-M"] = ModelSpec{
		Name: "ASR-920-24SZ-M", NumPorts: 28, PortType: model.SFPP,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.SFPP, Transceiver: model.LR, Speed: 10 * g}:         truthProfile(model.SFPP, model.LR, 10*g, 0.55, 0.95, 0.05, 25.6, 26.5, 0.04, dcScale),
			{Port: model.SFPP, Transceiver: model.BaseT, Speed: 1 * g}:       truthProfile(model.SFPP, model.BaseT, 1*g, 0.3, 0.5, 0.02, 33.8, 18.2, 0.03, dcScale),
			{Port: model.SFPP, Transceiver: model.PassiveDAC, Speed: 10 * g}: truthProfile(model.SFPP, model.PassiveDAC, 10*g, 0.55, 0.15, 0.02, 25.6, 26.5, 0.04, dcScale),
		},
		PBaseDC: 32, FanBasePower: 5, FanTempCoeff: 0.4, ControlPlanePower: 5.2,
		PowerJitter: 0.15,
		PSUCount:    2, PSUCapacity: 250, PSUCurve: curve,
		// Fig. 6d: same-model PSUs spanning the entire efficiency range.
		PSUEfficiencyBias: -0.08, PSUEfficiencySpread: 0.10,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 110, DatasheetMax: 250, DatasheetBandwidth: 128 * g,
		ReleaseYear: 2015, InitialOSVersion: "16.12",
	}

	specs["NCS-55A1-24Q6H-SS"] = ModelSpec{
		Name: "NCS-55A1-24Q6H-SS", NumPorts: 30, PortType: model.QSFP28,
		Truth:   specs["NCS-55A1-24H"].Truth,
		PBaseDC: 167, FanBasePower: 13, FanTempCoeff: 1.0, ControlPlanePower: 9.6,
		PowerJitter: 0.4,
		PSUCount:    2, PSUCapacity: 1100, PSUCurve: curve,
		PSUEfficiencyBias: -0.02, PSUEfficiencySpread: 0.02,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 400, DatasheetMax: 700, DatasheetBandwidth: 3.6 * units.TerabitPerSecond,
		ReleaseYear: 2018, InitialOSVersion: "7.3.2",
	}

	specs["NCS-55A1-48Q6H"] = ModelSpec{
		Name: "NCS-55A1-48Q6H", NumPorts: 54, PortType: model.QSFP28,
		Truth:   specs["NCS-55A1-24H"].Truth,
		PBaseDC: 213, FanBasePower: 15, FanTempCoeff: 1.1, ControlPlanePower: 10.5,
		PowerJitter: 0.4,
		PSUCount:    2, PSUCapacity: 1100, PSUCurve: curve,
		PSUEfficiencyBias: -0.02, PSUEfficiencySpread: 0.02,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 460, DatasheetMax: 800, DatasheetBandwidth: 6 * units.TerabitPerSecond,
		ReleaseYear: 2018, InitialOSVersion: "7.3.2",
	}

	specs["ASR-9001"] = ModelSpec{
		Name: "ASR-9001", NumPorts: 20, PortType: model.SFPP,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.SFPP, Transceiver: model.LR, Speed: 10 * g}:         truthProfile(model.SFPP, model.LR, 10*g, 0.55, 0.95, 0.05, 25.6, 26.5, 0.04, dcScale),
			{Port: model.SFPP, Transceiver: model.PassiveDAC, Speed: 10 * g}: truthProfile(model.SFPP, model.PassiveDAC, 10*g, 0.55, 0.15, 0.02, 25.6, 26.5, 0.04, dcScale),
		},
		PBaseDC: 243, FanBasePower: 18, FanTempCoeff: 1.4, ControlPlanePower: 16.4,
		PowerJitter: 0.5,
		PSUCount:    2, PSUCapacity: 750, PSUCurve: curve,
		PSUEfficiencyBias: -0.05, PSUEfficiencySpread: 0.03,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 425, DatasheetMax: 750, DatasheetBandwidth: 120 * g,
		ReleaseYear: 2012, InitialOSVersion: "6.7.3",
	}

	specs["N540-24Z8Q2C-M"] = ModelSpec{
		Name: "N540-24Z8Q2C-M", NumPorts: 34, PortType: model.SFPP,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.SFPP, Transceiver: model.LR, Speed: 10 * g}:         truthProfile(model.SFPP, model.LR, 10*g, 0.4, 0.95, 0.05, 25.6, 26.5, 0.04, dcScale),
			{Port: model.SFPP, Transceiver: model.PassiveDAC, Speed: 25 * g}: truthProfile(model.SFPP, model.PassiveDAC, 25*g, 0.3, 0.15, 0.05, 21, 55, 0.21, dcScale),
		},
		PBaseDC: 111, FanBasePower: 8, FanTempCoeff: 0.6, ControlPlanePower: 8.4,
		PowerJitter: 0.3,
		PSUCount:    2, PSUCapacity: 400, PSUCurve: curve,
		PSUEfficiencyBias: -0.03, PSUEfficiencySpread: 0.02,
		PSUSensor:        SensorAccurate,
		DatasheetTypical: 200, DatasheetMax: 350, DatasheetBandwidth: 440 * g,
		ReleaseYear: 2019, InitialOSVersion: "7.1.2",
	}

	// --- Modular chassis (the §4.3 Plinecard extension) ---
	// The paper's model targets fixed chassis; this entry exercises the
	// proposed extension: a line-card chassis whose cards are measured
	// like transceivers.
	specs["ASR-9910"] = ModelSpec{
		Name: "ASR-9910", NumPorts: 8, PortType: model.SFPP,
		Truth: map[model.ProfileKey]model.InterfaceProfile{
			{Port: model.SFPP, Transceiver: model.LR, Speed: 10 * g}: truthProfile(model.SFPP, model.LR, 10*g, 0.55, 0.95, 0.05, 25.6, 26.5, 0.04, dcScale),
		},
		PBaseDC: 610, FanBasePower: 120, FanTempCoeff: 4.0, ControlPlanePower: 85,
		PowerJitter: 1.2,
		PSUCount:    4, PSUCapacity: 3000, PSUCurve: curve,
		PSUEfficiencyBias: -0.03, PSUEfficiencySpread: 0.02,
		PSUSensor: SensorAccurate,
		Slots:     8,
		Linecards: []LinecardType{
			{Name: "A99-48X10GE", PowerDC: 420},
			{Name: "A99-8X100GE", PowerDC: 560},
		},
		DatasheetTypical: 2800, DatasheetMax: 6000, DatasheetBandwidth: 6.4 * units.TerabitPerSecond,
		ReleaseYear: 2016, InitialOSVersion: "7.3.2",
	}

	specs["8201-24H8FH"] = ModelSpec{
		Name: "8201-24H8FH", NumPorts: 32, PortType: model.QSFP,
		Truth:   specs["8201-32FH"].Truth,
		PBaseDC: 148, FanBasePower: 12, FanTempCoeff: 1.3, ControlPlanePower: 6.2,
		PowerJitter: 0.4,
		PSUCount:    2, PSUCapacity: 2000, PSUCurve: curve,
		PSUEfficiencyBias: -0.10, PSUEfficiencySpread: 0.015,
		PSUSensor: SensorOffset, PSUSensorOffset: 15,
		DatasheetTypical: 205, DatasheetMax: 960, DatasheetBandwidth: 5.6 * units.TerabitPerSecond,
		ReleaseYear: 2021, InitialOSVersion: "7.9.2",
	}

	return specs
}

// Spec returns the catalog spec for the named router model.
func Spec(name string) (ModelSpec, error) {
	s, ok := Catalog()[name]
	if !ok {
		return ModelSpec{}, fmt.Errorf("device: no spec for %q (known: %v)", name, CatalogNames())
	}
	return s, nil
}

// CatalogNames lists the hardware models in the catalog, sorted.
func CatalogNames() []string {
	c := Catalog()
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
