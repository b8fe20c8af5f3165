package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"fantasticjoules/internal/experiments"
	"fantasticjoules/internal/hypnos"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/optimizer"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/units"
)

// workload is one set of inputs the benchmark runs, closed loop with a
// single caller. setup builds the run's retained state from the seed;
// the program only ever sees the config it derives.
type workload struct {
	name  string
	setup func(seed int64, workers int) (runner, error)
}

var workloads = []workload{
	{"paper-cold", newPaperCold},
	{"whatif-107", newWhatIf},
	{"stream-10k", newStream},
	{"optimize-1k", newOptimize},
}

// runner holds one run's retained state.
type runner interface {
	// op runs one op. tr is nil on untraced ops; root is the op's span.
	op(tr *tracer, root, opID int) (opResult, error)
	// probe runs a traced op's isolated experiments: calls the op makes
	// only inside another layer, timed alone as root spans of their own.
	probe(tr *tracer, opID int) error
	// check verifies one op's output. It runs outside the timed region.
	check(seed int64, res opResult) error
	// finish runs the end-of-run checks.
	finish() error
}

// opResult is what one op hands to its check and to the ledger.
type opResult struct {
	out any
	// layer carries per-op counts the program does not export through
	// telemetry, keyed by per-layer metric name.
	layer map[string]float64
}

// fact is one named output statistic of an op, rendered exactly.
type fact struct{ name, value string }

func fbits(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// pinned holds the output statistics at the pinned seed. A run at that
// seed must reproduce every one of them exactly; a run at any seed must
// reproduce its own first op on every later op.
const pinnedSeed = 42

var pinned = map[string]map[string]string{
	"paper-cold": {
		"dataset":                    "0dbfa8239b26c906",
		"artifacts":                  "2bcc38022bc0a503",
		"fig1.power_traffic_corr":    "0.1308757061501909",
		"table3.fleet_input_w":       "21579.290033674053",
		"section7.transceiver_share": "0.13419464967429914",
		"section8.low_share":         "0.0030702372923881735",
		"section8.high_share":        "0.013360844684990462",
	},
	"stream-10k": {
		"dataset":     "c3d27aab46a6defe",
		"joules":      "1.275357659650848e+12",
		"sink.chunks": "20000",
		"sink.points": "3360000",
		"sink.bytes":  "30560000",
	},
	"optimize-1k": {
		"steps":            "24",
		"actions":          "2660",
		"vetoes":           "23670",
		"resimulates":      "21",
		"transitions":      "659",
		"psus_shed":        "1000",
		"saved_joules":     "3.229955554642868e+07",
		"psu_saved_joules": "7.318814716819324e+08",
		"envelope_low_w":   "203.48583333335975",
		"envelope_high_w":  "1199.1958333332566",
	},
}

// sameEveryOp is the output check shared by workloads whose ops all
// compute the same thing.
type sameEveryOp struct {
	workload string
	first    []fact
}

func (c *sameEveryOp) firstFacts() []fact { return c.first }

func (c *sameEveryOp) compare(seed int64, fs []fact) error {
	if c.first == nil {
		c.first = fs
		if seed == pinnedSeed {
			want := pinned[c.workload]
			got := map[string]string{}
			for _, f := range fs {
				got[f.name] = f.value
			}
			for name, v := range want {
				if got[name] != v {
					return fmt.Errorf("%s at seed %d: %s = %s, pinned %s", c.workload, seed, name, got[name], v)
				}
			}
		}
		return nil
	}
	if len(fs) != len(c.first) {
		return fmt.Errorf("%s: op reports %d facts, first op %d", c.workload, len(fs), len(c.first))
	}
	for i, f := range fs {
		if f != c.first[i] {
			return fmt.Errorf("%s: %s = %s, first op had %s", c.workload, f.name, f.value, c.first[i].value)
		}
	}
	return nil
}

// --- paper-cold ---

// paperCold regenerates the paper's fleet-dependent artifacts from a
// fresh suite on every op: the cold path a reader of the paper runs.
type paperCold struct {
	seed    int64
	workers int
	sameEveryOp
}

type paperOut struct {
	ds       *ispnet.Dataset
	fig1     experiments.Fig1Result
	fig4     []experiments.Fig4Row
	fig9     []experiments.Fig9Row
	table2   []experiments.ModelRow
	table3   experiments.Table3Result
	table4   experiments.Table4Result
	section7 experiments.Section7Result
	section8 experiments.Section8Result
}

func newPaperCold(seed int64, workers int) (runner, error) {
	return &paperCold{seed: seed, workers: workers, sameEveryOp: sameEveryOp{workload: "paper-cold"}}, nil
}

func (p *paperCold) op(tr *tracer, root, opID int) (opResult, error) {
	s := experiments.New(p.seed)
	s.SetWorkers(p.workers)
	var o paperOut
	var err error
	cell := func(name string, f func() error) {
		if err == nil {
			_, err = call(tr, "cell."+name, root, opID, func() (struct{}, error) { return struct{}{}, f() })
		}
	}
	cell("dataset", func() (e error) { o.ds, e = s.Dataset(); return })
	cell("fig1", func() (e error) { o.fig1, e = s.Fig1(); return })
	cell("fig4", func() (e error) { o.fig4, e = s.Fig4(); return })
	cell("fig9", func() (e error) { o.fig9, e = s.Fig9(); return })
	cell("table2", func() (e error) { o.table2, e = s.Table2(); return })
	cell("table3", func() (e error) { o.table3, e = s.Table3(); return })
	cell("table4", func() (e error) { o.table4, e = s.Table4(); return })
	cell("section7", func() (e error) { o.section7, e = s.Section7(); return })
	cell("section8", func() (e error) { o.section8, e = s.Section8(); return })
	return opResult{out: &o}, err
}

func (p *paperCold) probe(tr *tracer, opID int) error {
	cfg := experiments.New(p.seed).DatasetConfig()
	cfg.Workers = p.workers
	_, err := call(tr, "build", -1, opID, func() (*ispnet.Network, error) { return ispnet.Build(cfg) })
	return err
}

func (p *paperCold) check(seed int64, res opResult) error {
	o := res.out.(*paperOut)
	ds, err := datasetDigest(o.ds)
	if err != nil {
		return err
	}
	arts, err := digest(o.fig1, o.fig4, o.fig9, o.table2, o.table3, o.table4, o.section7, o.section8)
	if err != nil {
		return err
	}
	return p.compare(seed, []fact{
		{"dataset", ds},
		{"artifacts", arts},
		{"fig1.power_traffic_corr", fbits(o.fig1.PowerTrafficCorrelation)},
		{"table3.fleet_input_w", fbits(o.table3.FleetInput.Watts())},
		{"section7.transceiver_share", fbits(o.section7.TransceiverShare)},
		{"section8.low_share", fbits(o.section8.LowShare)},
		{"section8.high_share", fbits(o.section8.HighShare)},
	})
}

func (p *paperCold) finish() error { return nil }

// --- whatif-107 ---

// whatIf is the perturb→remeasure loop on a retained suite: each op
// scales one router's load at week 3, in a seeded order over the whole
// fleet, ×1.5 on the first pass and ×1/1.5 on the second. Every
// Resimulate recompiles the whole merged schedule, so op cost grows with
// the perturbations before it (+25 % over 2000 ops on a 2-core VM); to
// keep an op's cost independent of how many ops the host managed before
// it, the suite is rebuilt after each two-pass cycle, outside the timed
// region, once the cycle has been checked against a cold replay.
type whatIf struct {
	seed    int64
	workers int
	routers []string // perturbation order

	s      *experiments.Suite
	cfg    ispnet.Config
	at     time.Time
	ops    int // ops in the current cycle
	events []ispnet.FleetEvent
	// median is the per-router wall median after the previous op.
	median map[string]units.Power
	last   *ispnet.Dataset
}

type whatIfOut struct {
	router string
	ds     *ispnet.Dataset
	fig1   experiments.Fig1Result
}

func newWhatIf(seed int64, workers int) (runner, error) {
	w := &whatIf{seed: seed, workers: workers}
	if err := w.reset(); err != nil {
		return nil, err
	}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(w.last.Network.Routers)) {
		w.routers = append(w.routers, w.last.Network.Routers[i].Name)
	}
	return w, nil
}

// reset starts a cycle on a fresh suite with its dataset and Fig. 1
// computed.
func (w *whatIf) reset() error {
	s := experiments.New(w.seed)
	s.SetWorkers(w.workers)
	ds, err := s.Dataset()
	if err != nil {
		return err
	}
	if _, err := s.Fig1(); err != nil {
		return err
	}
	w.s, w.cfg, w.last = s, s.DatasetConfig(), ds
	w.at = ds.Network.Config.Start.Add(21 * 24 * time.Hour)
	w.ops, w.events = 0, nil
	w.median = copyMedians(ds.RouterWallMedian)
	return nil
}

func (w *whatIf) op(tr *tracer, root, opID int) (opResult, error) {
	n := len(w.routers)
	factor := 1.5
	if w.ops >= n {
		factor = 1 / 1.5
	}
	ev := ispnet.FleetEvent{At: w.at, Router: w.routers[w.ops%n], Op: ispnet.OpScaleLoad, Factor: factor}
	w.ops++
	_, err := call(tr, "perturb", root, opID, func() (struct{}, error) { return struct{}{}, w.s.Perturb(ev) })
	if err != nil {
		return opResult{}, err
	}
	w.events = append(w.events, ev)
	ds, err := call(tr, "fleet.resimulate", root, opID, w.s.Dataset)
	if err != nil {
		return opResult{}, err
	}
	fig1, err := call(tr, "cell.fig1", root, opID, w.s.Fig1)
	if err != nil {
		return opResult{}, err
	}
	w.last = ds
	return opResult{
		out:   &whatIfOut{router: ev.Router, ds: ds, fig1: fig1},
		layer: map[string]float64{"fleet.perturbed": 1, "fleet.resimulates": 1},
	}, nil
}

func (w *whatIf) probe(tr *tracer, opID int) error {
	_, err := call(tr, "build", -1, opID, func() (*ispnet.Network, error) { return ispnet.Build(w.cfg) })
	return err
}

// check verifies that the op moved its own router and nothing else: a
// one-router perturbation that leaks into a clean router's shard is the
// failure incremental replay must never have. At the end of a cycle it
// also checks the cycle against a cold replay and starts the next one.
func (w *whatIf) check(_ int64, res opResult) error {
	o := res.out.(*whatIfOut)
	if len(o.ds.RouterWallMedian) != len(w.median) {
		return fmt.Errorf("whatif-107: %d router medians, want %d", len(o.ds.RouterWallMedian), len(w.median))
	}
	for name, m := range o.ds.RouterWallMedian {
		if name != o.router && m != w.median[name] {
			return fmt.Errorf("whatif-107: perturbing %s moved clean router %s (%v → %v)", o.router, name, w.median[name], m)
		}
	}
	if o.fig1.Power.Len() != o.ds.TotalPower.Len() {
		return fmt.Errorf("whatif-107: fig1 has %d power points, dataset %d", o.fig1.Power.Len(), o.ds.TotalPower.Len())
	}
	w.median = copyMedians(o.ds.RouterWallMedian)
	if w.ops < 2*len(w.routers) {
		return nil
	}
	if err := w.finish(); err != nil {
		return err
	}
	return w.reset()
}

// finish replays every perturbation of the current cycle cold and
// demands a bit-identical dataset.
func (w *whatIf) finish() error {
	cold, err := ispnet.SimulateWithEvents(w.cfg, w.events)
	if err != nil {
		return fmt.Errorf("whatif-107: cold replay: %w", err)
	}
	if err := ispnet.DiffDatasets(cold, w.last); err != nil {
		return fmt.Errorf("whatif-107: incremental dataset after %d perturbations differs from cold replay: %w", len(w.events), err)
	}
	return nil
}

func copyMedians(m map[string]units.Power) map[string]units.Power {
	c := make(map[string]units.Power, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// --- stream-10k ---

// stream builds a 10k-router hierarchical fleet and streams one week
// at one hour through a counting sink on every op.
type stream struct {
	cfg ispnet.Config
	sameEveryOp
}

func newStream(seed int64, workers int) (runner, error) {
	return &stream{
		cfg: ispnet.Config{
			Seed: seed, Routers: 10000, Duration: 7 * 24 * time.Hour,
			SNMPStep: time.Hour, AutopowerStep: time.Hour, Workers: workers,
		},
		sameEveryOp: sameEveryOp{workload: "stream-10k"},
	}, nil
}

// timedSink counts what the stream spills and, on traced ops, times
// every WriteChunk call as a span.
type timedSink struct {
	ispnet.DiscardSink
	tr         *tracer
	parent, op int
}

func (s *timedSink) WriteChunk(router, series string, chunk []byte) error {
	if s.tr == nil {
		return s.DiscardSink.WriteChunk(router, series, chunk)
	}
	start := time.Now()
	err := s.DiscardSink.WriteChunk(router, series, chunk)
	s.tr.leaf("stream.sink", s.parent, s.op, start, time.Now())
	return err
}

type streamOut struct {
	ds   *ispnet.Dataset
	sink ispnet.DiscardSink
}

func (s *stream) op(tr *tracer, root, opID int) (opResult, error) {
	net, err := call(tr, "build", root, opID, func() (*ispnet.Network, error) { return ispnet.Build(s.cfg) })
	if err != nil {
		return opResult{}, err
	}
	run := tr.begin("stream.run", root, opID)
	sink := &timedSink{tr: tr, parent: run, op: opID}
	ds, err := net.RunStream(sink)
	tr.end(run)
	if err != nil {
		return opResult{}, err
	}
	return opResult{
		out:   &streamOut{ds: ds, sink: sink.DiscardSink},
		layer: map[string]float64{"stream.points": float64(sink.Points)},
	}, nil
}

func (s *stream) probe(*tracer, int) error { return nil }

func (s *stream) check(seed int64, res opResult) error {
	o := res.out.(*streamOut)
	ds, err := datasetDigest(o.ds)
	if err != nil {
		return err
	}
	return s.compare(seed, []fact{
		{"dataset", ds},
		{"joules", fbits(timeseries.IntegratePower(o.ds.TotalPower))},
		{"sink.chunks", strconv.FormatInt(o.sink.Chunks, 10)},
		{"sink.points", strconv.FormatInt(o.sink.Points, 10)},
		{"sink.bytes", strconv.FormatInt(o.sink.Bytes, 10)},
	})
}

func (s *stream) finish() error { return nil }

// --- optimize-1k ---

// optimize runs the closed-loop optimizer over one day of a 1k-router
// fleet on every op: the `joules -optimize -routers 1000` path, composed
// from the same public calls experiments.RunOptimizeScale makes so each
// one can be timed, with Workers set explicitly.
type optimize struct {
	cfg ispnet.Config
	sameEveryOp
}

const (
	optWindow = 24 * time.Hour
	optStep   = time.Hour
	// optPSUEfficiencyFloor amplifies the envelope ceiling by the
	// worst-case PSU conversion, as experiments.RunOptimizeScale does.
	optPSUEfficiencyFloor = 0.8
)

func newOptimize(seed int64, workers int) (runner, error) {
	return &optimize{
		cfg: ispnet.Config{
			Seed: seed, Routers: 1000, Duration: optWindow, SNMPStep: optStep, Workers: workers,
		},
		sameEveryOp: sameEveryOp{workload: "optimize-1k"},
	}, nil
}

type optimizeOut struct {
	rep      *optimizer.Report
	estimate hypnos.Savings
}

func (o *optimize) op(tr *tracer, root, opID int) (opResult, error) {
	rig, err := call(tr, "rig", root, opID, func() (*optimizer.Rig, error) { return optimizer.NewRig(o.cfg) })
	if err != nil {
		return opResult{}, err
	}
	ctl, err := rig.Controller(optimizer.Config{
		Start:          rig.Fleet.Network().Config.Start,
		Window:         optWindow,
		Step:           optStep,
		MinDwellSteps:  4,
		MaxUtilization: optimizer.DefaultMaxUtilization,
		PSUShed:        true,
		PSUMaxLoad:     optimizer.DefaultPSUMaxLoad,
	})
	if err != nil {
		return opResult{}, err
	}
	rep, err := call(tr, "optimizer.run", root, opID, ctl.Run)
	if err != nil {
		return opResult{}, err
	}
	est, _ := call(tr, "hypnos.evaluate", root, opID, func() (hypnos.Savings, error) { // cannot fail
		times := make([]time.Time, len(rep.Steps))
		sleeping := make([][]int, len(rep.Steps))
		for i, st := range rep.Steps {
			times[i] = st.Time
			sleeping[i] = st.Sleeping
		}
		return hypnos.Evaluate(hypnos.NewSchedule(rig.Topo, times, sleeping)), nil
	})
	return opResult{
		out: &optimizeOut{rep: rep, estimate: est},
		layer: map[string]float64{
			"optimizer.steps":   float64(len(rep.Steps)),
			"fleet.perturbed":   float64(perturbedRouters(rep.Events)),
			"fleet.resimulates": float64(rep.Resimulates),
			"fleet.cold_plays":  float64(o.cfg.Routers),
		},
	}, nil
}

// perturbedRouters counts the routers each commit dirtied, summed over
// commits; a commit's events share their due time.
func perturbedRouters(evs []ispnet.FleetEvent) int {
	n := 0
	var seen map[string]bool
	for i, ev := range evs {
		if i == 0 || !ev.At.Equal(evs[i-1].At) {
			seen = map[string]bool{}
		}
		if !seen[ev.Router] {
			seen[ev.Router] = true
			n++
		}
	}
	return n
}

func (o *optimize) probe(tr *tracer, opID int) error {
	net, err := call(tr, "build", -1, opID, func() (*ispnet.Network, error) { return ispnet.Build(o.cfg) })
	if err != nil {
		return err
	}
	_, err = call(tr, "hypnos.from_network", -1, opID, func() (hypnos.Topology, error) {
		topo, _, err := hypnos.FromNetwork(net)
		return topo, err
	})
	return err
}

func (o *optimize) check(seed int64, res opResult) error {
	out := res.out.(*optimizeOut)
	rep := out.rep
	if rep.GuardrailViolations != 0 {
		return fmt.Errorf("optimize-1k: %d guardrail violations", rep.GuardrailViolations)
	}
	low := out.estimate.RefinedLow
	high := units.Power(out.estimate.RefinedHigh.Watts() / optPSUEfficiencyFloor)
	if rep.SleepSavedWatts < low || rep.SleepSavedWatts > high {
		return fmt.Errorf("optimize-1k: realized saving %v outside envelope [%v, %v]", rep.SleepSavedWatts, low, high)
	}
	return o.compare(seed, []fact{
		{"steps", strconv.Itoa(len(rep.Steps))},
		{"actions", strconv.Itoa(rep.Actions)},
		{"vetoes", strconv.Itoa(rep.Vetoes)},
		{"resimulates", strconv.Itoa(rep.Resimulates)},
		{"transitions", strconv.Itoa(rep.Transitions())},
		{"psus_shed", strconv.Itoa(rep.PSUsShed)},
		{"saved_joules", fbits(rep.SleepSavedJoules.Joules())},
		{"psu_saved_joules", fbits(rep.PSUSavedJoules.Joules())},
		{"envelope_low_w", fbits(low.Watts())},
		{"envelope_high_w", fbits(high.Watts())},
	})
}

func (o *optimize) finish() error { return nil }
