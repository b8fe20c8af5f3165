package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/stats"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/trafficgen"
	"fantasticjoules/internal/units"
)

// SmoothingWindow is the averaging the paper applies to the Fig. 4 traces.
const SmoothingWindow = 30 * time.Minute

// Fig4Row is one panel of Fig. 4: the three power views of one deployed
// router.
type Fig4Row struct {
	Router string
	Model  string

	// Autopower is the externally measured wall power (ground truth),
	// 30-minute smoothed.
	Autopower *timeseries.Series
	// SNMP is the router's own PSU-reported power, smoothed; nil when the
	// model reports nothing (the Fig. 4c router).
	SNMP *timeseries.Series
	// Prediction is the lab-derived model evaluated on the router's
	// inventory and traffic counters, smoothed.
	Prediction *timeseries.Series

	// ModelOffset is the median (Autopower − Prediction): the paper finds
	// a consistent underestimation of ≈3–13 W.
	ModelOffset units.Power
	// ModelShapeCorrelation is the Pearson correlation between the
	// smoothed measurement and prediction — "the shapes consistently
	// match".
	ModelShapeCorrelation float64
	// SNMPOffset is the median (SNMP − Autopower); meaningless (0) when
	// SNMP is nil.
	SNMPOffset units.Power
	// SNMPShapeCorrelation is the correlation between SNMP report and
	// ground truth — high for the offset-sensor router, low for the
	// pseudo-constant one.
	SNMPShapeCorrelation float64
}

// Fig4 regenerates the three panels of Fig. 4: for each instrumented
// router, external measurements vs PSU reports vs lab-derived model
// predictions over the deployment window.
func (s *Suite) Fig4() ([]Fig4Row, error) {
	return s.fig4.get(func() ([]Fig4Row, error) {
		defer observeArtifact("fig4", time.Now())
		ds, err := s.Dataset()
		if err != nil {
			return nil, err
		}
		var rows []Fig4Row
		for _, r := range ds.Network.AutopowerRouters() {
			row, err := s.fig4Row(ds, r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Model < rows[j].Model })
		return rows, nil
	})
}

func (s *Suite) fig4Row(ds *ispnet.Dataset, r *ispnet.Router) (Fig4Row, error) {
	pred, err := s.prediction(ds, r.Name, r.Model)
	if err != nil {
		return Fig4Row{}, err
	}
	row := Fig4Row{
		Router:     r.Name,
		Model:      r.Model,
		Autopower:  ds.Autopower[r.Name].Smooth(SmoothingWindow),
		Prediction: pred.Smooth(SmoothingWindow),
	}
	if snmp, ok := ds.SNMPPower[r.Name]; ok {
		row.SNMP = snmp.Smooth(SmoothingWindow)
	}

	// Offsets and shape agreement on the aligned series. The difference
	// series is a transient — computed into arena scratch, read, and
	// returned to the pool.
	diff := s.scratch.get()
	defer s.scratch.put(diff)
	if _, err := timeseries.SubInto(row.Autopower, row.Prediction, diff); err != nil {
		return Fig4Row{}, fmt.Errorf("fig4 %s: %w", r.Name, err)
	}
	row.ModelOffset = units.Power(diff.Median())
	row.ModelShapeCorrelation, err = s.alignedCorrelation(row.Autopower, row.Prediction)
	if err != nil {
		return Fig4Row{}, err
	}
	if row.SNMP != nil {
		if _, err := timeseries.SubInto(row.SNMP, row.Autopower, diff); err != nil {
			return Fig4Row{}, err
		}
		row.SNMPOffset = units.Power(diff.Median())
		row.SNMPShapeCorrelation, err = s.alignedCorrelation(row.SNMP, row.Autopower)
		if err != nil {
			return Fig4Row{}, err
		}
	}
	return row, nil
}

// alignedCorrelation resamples both series to 30-minute buckets and
// returns their Pearson correlation. All intermediates live in arena
// scratch.
func (s *Suite) alignedCorrelation(a, b *timeseries.Series) (float64, error) {
	ra, rb, diff := s.scratch.get(), s.scratch.get(), s.scratch.get()
	defer s.scratch.put(ra, rb, diff)
	if _, err := a.ResampleInto(SmoothingWindow, timeseries.AggMean, ra); err != nil {
		return 0, err
	}
	if _, err := b.ResampleInto(SmoothingWindow, timeseries.AggMean, rb); err != nil {
		return 0, err
	}
	if _, err := timeseries.SubInto(ra, rb, diff); err != nil {
		return 0, err
	}
	// Reconstruct the aligned pairs from the subtraction's timestamps.
	bv := make(map[int64]float64, rb.Len())
	for i := 0; i < rb.Len(); i++ {
		bv[rb.NanoAt(i)] = rb.Value(i)
	}
	var xs, ys []float64
	for i := 0; i < diff.Len(); i++ {
		base, ok := bv[diff.NanoAt(i)]
		if !ok {
			continue
		}
		xs = append(xs, diff.Value(i)+base)
		ys = append(ys, base)
	}
	return stats.PearsonCorrelation(xs, ys)
}

// PredictFromCounters evaluates a power model over a deployed router's
// trace data the way §6.2 does: the transceiver inventory supplies each
// interface's profile, and the traffic counters decide which interfaces
// are treated as active — an interface with no counters looks absent, so
// plugged spares (and transceivers left in downed ports) are invisible to
// the model. That blind spot is a finding of the paper, not a bug here.
func PredictFromCounters(m *model.Model, ds *ispnet.Dataset, routerName string) (*timeseries.Series, error) {
	rates, ok := ds.IfaceRates[routerName]
	if !ok {
		return nil, fmt.Errorf("experiments: no counter traces for %s", routerName)
	}
	profiles := ds.IfaceProfiles[routerName]

	// Walk the columnar traces in place (index cursors, no Points()
	// materialization: the rate traces total tens of megabytes of points
	// per call otherwise).
	names := make([]string, 0, len(rates))
	for name := range rates {
		names = append(names, name)
	}
	sort.Strings(names)
	ifaces := make([]counterCursor, 0, len(names))
	var clock *timeseries.Series
	for _, name := range names {
		key, ok := profiles[name]
		if !ok {
			return nil, fmt.Errorf("experiments: no profile for %s/%s", routerName, name)
		}
		ifaces = append(ifaces, counterCursor{key: key, s: rates[name]})
		if clock == nil || rates[name].Len() > clock.Len() {
			clock = rates[name] // union of poll timestamps: the longest trace
		}
	}
	// An interface whose counters stop updating for more than two polls is
	// treated as removed (the paper's flapping case shows this inference
	// can be wrong when the transceiver stays plugged — that error is the
	// finding, and it shows up here too).
	var staleAfter int64
	if clock != nil && clock.Len() > 1 {
		staleAfter = 2 * (clock.NanoAt(1) - clock.NanoAt(0))
	}
	meanPkt := trafficgen.IMIXMeanSize()
	n := 0
	if clock != nil {
		n = clock.Len()
	}
	out := timeseries.NewWithCap(routerName+".model", n)
	// One interface-config buffer reused across ticks; Predict only reads
	// it.
	buf := make([]model.Interface, 0, len(ifaces))
	for ti := 0; ti < n; ti++ {
		p, next, err := predictTick(m, ifaces, clock.NanoAt(ti), staleAfter, meanPkt, buf)
		if err != nil {
			return nil, err
		}
		buf = next
		out.Append(clock.At(ti).T, p.Watts())
	}
	return out, nil
}

// counterCursor walks one interface's rate trace with an index cursor so
// the tick loop never materializes the columnar points.
type counterCursor struct {
	key model.ProfileKey
	s   *timeseries.Series
	idx int
}

// predictTick evaluates the model at one poll tick: every cursor advances
// to the tick, the live counters assemble an interface config in buf, and
// the model predicts. The (possibly grown) buffer is handed back for the
// next tick, so the steady state appends into warm capacity and the loop
// over a multi-week trace allocates nothing per tick.
//
//joules:hotpath
func predictTick(m *model.Model, ifaces []counterCursor, tickNano, staleAfter int64, meanPkt units.ByteSize, buf []model.Interface) (units.Power, []model.Interface, error) {
	cfg := model.Config{Interfaces: buf[:0]}
	for ii := range ifaces {
		itf := &ifaces[ii]
		for itf.idx+1 < itf.s.Len() && itf.s.NanoAt(itf.idx+1) <= tickNano {
			itf.idx++
		}
		if itf.idx >= itf.s.Len() || itf.s.NanoAt(itf.idx) > tickNano {
			continue // interface not reporting yet
		}
		if staleAfter > 0 && tickNano-itf.s.NanoAt(itf.idx) > staleAfter {
			continue // counters stopped: interface looks removed
		}
		rate := itf.s.Value(itf.idx)
		if rate <= 0 {
			continue // no counters → treated as absent (§7)
		}
		bits := units.BitRate(rate)
		cfg.Interfaces = append(cfg.Interfaces, model.Interface{
			Profile:            itf.key,
			TransceiverPresent: true,
			AdminUp:            true,
			OperUp:             true,
			Bits:               bits,
			Packets:            units.PacketRateFor(bits, meanPkt, trafficgen.EthernetOverhead),
		})
	}
	p, err := m.PredictPower(cfg)
	return p, cfg.Interfaces[:0], err
}

// Fig9Row is one panel of Fig. 9: the offset-corrected zoom showing the
// model's precision.
type Fig9Row struct {
	Router string
	Model  string
	// Autopower and ShiftedPrediction cover the zoom window with the
	// prediction manually offset to measurement level.
	Autopower         *timeseries.Series
	ShiftedPrediction *timeseries.Series
	// ResidualRMSE is the RMS error after offset correction — the
	// precision the paper demonstrates.
	ResidualRMSE units.Power
}

// Fig9 regenerates the zoomed offset-corrected comparison: a 10-day
// window with the model shifted onto the Autopower level.
func (s *Suite) Fig9() ([]Fig9Row, error) {
	return s.fig9.get(func() ([]Fig9Row, error) {
		defer observeArtifact("fig9", time.Now())
		return s.fig9Uncached()
	})
}

func (s *Suite) fig9Uncached() ([]Fig9Row, error) {
	rows4, err := s.Fig4()
	if err != nil {
		return nil, err
	}
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	start := ds.Network.Config.Start.Add(27 * 24 * time.Hour)
	end := start.Add(10 * 24 * time.Hour)
	diff := s.scratch.get()
	defer s.scratch.put(diff)
	var out []Fig9Row
	for _, r4 := range rows4 {
		ap := r4.Autopower.Between(start, end)
		shifted := r4.Prediction.Shift(r4.ModelOffset.Watts()).Between(start, end)
		if _, err := timeseries.SubInto(ap, shifted, diff); err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", r4.Router, err)
		}
		var ss float64
		for i := 0; i < diff.Len(); i++ {
			v := diff.Value(i)
			ss += v * v
		}
		rmse := units.Power(0)
		if diff.Len() > 0 {
			rmse = units.Power(math.Sqrt(ss / float64(diff.Len())))
		}
		out = append(out, Fig9Row{
			Router: r4.Router, Model: r4.Model,
			Autopower: ap, ShiftedPrediction: shifted,
			ResidualRMSE: rmse,
		})
	}
	return out, nil
}
