package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"fantasticjoules/internal/experiments"
	"fantasticjoules/internal/timeseries"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with: the metric names and units it declares.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// syntheticRun is a run result with one traced and one untraced op and
// a span tree, enough for every metric function to produce a value.
func syntheticRun() *runResult {
	tr := &tracer{}
	tr.spans = []span{
		{name: "op", parent: -1, op: 1, start: 0, end: 10 * time.Millisecond, allocBytes: 100, allocObjects: 10},
		{name: "build", parent: 0, op: 1, start: time.Millisecond, end: 4 * time.Millisecond, allocBytes: 60, allocObjects: 6},
	}
	var d delta
	d.wall = 10 * time.Millisecond
	d.cpu = 12 * time.Millisecond
	d.rt[rtAllocBytes] = 100
	d.tel[telSteps] = 50
	return &runResult{
		setup: []float64{1, 2, 3},
		ops: []opRecord{
			{id: 0, d: d},
			{id: 1, traced: true, d: d},
		},
		peakRSS: 50,
		tr:      tr,
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	bj := readBenchmarkJSON(t)
	res := syntheticRun()
	for _, tc := range []struct {
		mode     string
		got      []metric
		declared []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd(res), bj.EndToEnd},
		{"per_layer", perLayer(res), bj.PerLayer},
	} {
		if err := validateMetrics(tc.got); err != nil {
			t.Errorf("%s: %v", tc.mode, err)
		}
		if len(tc.got) != len(tc.declared) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", tc.mode, len(tc.got), len(tc.declared))
			continue
		}
		for i, m := range tc.got {
			if d := tc.declared[i]; m.name != d.Name || m.unit != d.Unit {
				t.Errorf("%s[%d]: program reports %s [%s], BENCHMARK.json declares %s [%s]", tc.mode, i, m.name, m.unit, d.Name, d.Unit)
			}
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
}

func TestValidateMetricsRejects(t *testing.T) {
	for _, m := range []metric{
		{"op ms", 1, "ms"},
		{".op_ms", 1, "ms"},
		{"", 1, "ms"},
		{"op_ms", 1, ""},
		{"op_ms", 1, "milliseconds!"},
		{strings.Repeat("x", 65), 1, "ms"},
	} {
		if err := validateMetrics([]metric{m}); err == nil {
			t.Errorf("validateMetrics accepted %+v", m)
		}
	}
	if err := validateMetrics([]metric{{"a", 1, "ms"}, {"a", 2, "ms"}}); err == nil {
		t.Error("validateMetrics accepted a repeated name")
	}
	if err := validateMetrics([]metric{{"a.b-c_9", 1, "1/s"}}); err != nil {
		t.Errorf("validateMetrics rejected a valid metric: %v", err)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false}, // p90 would have 9.9 samples beyond it
		{100, 0.90, true},
		{999, 0.90, true}, // p99 would have 9.99 beyond
		{1000, 0.99, true},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("percentile(0.5) of 1..4 = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 60 * ms},  // overlaps a
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms}, // escapes op
		{name: "a.x", parent: 1, start: 15 * ms, end: 20 * ms},
		{name: "probe", parent: -1, start: 200 * ms, end: 210 * ms},
	}
	want := []time.Duration{
		40 * ms, // 100 − [10,60] − [90,100]
		25 * ms, // 30 − 5
		30 * ms,
		30 * ms,
		5 * ms,
		10 * ms,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}

	// In a well-nested tree the self times sum to the root's duration.
	nested := []span{
		{name: "op", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 40 * ms, end: 90 * ms},
		{name: "b.x", parent: 2, start: 50 * ms, end: 60 * ms},
		{name: "b.y", parent: 2, start: 60 * ms, end: 61 * ms},
	}
	var sum time.Duration
	for _, d := range selfTimes(nested) {
		sum += d
	}
	if sum != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

// flakyRunner fails the check of every third op.
type flakyRunner struct{ ops int }

var errFlaky = errors.New("wrong output")

func (f *flakyRunner) op(*tracer, int, int) (opResult, error) {
	time.Sleep(5 * time.Millisecond)
	f.ops++
	return opResult{out: f.ops}, nil
}
func (f *flakyRunner) probe(*tracer, int) error { return nil }
func (f *flakyRunner) check(_ int64, res opResult) error {
	if res.out.(int)%3 == 0 {
		return errFlaky
	}
	return nil
}
func (f *flakyRunner) finish() error { return nil }

func TestFailedOpsCounted(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	// The warm-up op of each setup is op 1 of a fresh runner, so it
	// passes; the timed ops continue that runner's count.
	workloads = []workload{{"flaky", func(int64, int) (runner, error) { return &flakyRunner{}, nil }}}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "flaky", "--seconds", "1"}, &stdout, &stderr)
	if code == 0 {
		t.Error("run exited 0 with failed ops")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	// Timed ops are runner ops 2..attempted+1; every multiple of 3 fails.
	want := (line.Attempted + 1) / 3
	if line.Correct || line.Failed != want || line.Attempted < 3 {
		t.Errorf("result correct=%v attempted=%d failed=%d, want correct=false and failed=%d",
			line.Correct, line.Attempted, line.Failed, want)
	}
	ratioLine := fmt.Sprintf("%14.6g ratio (%d of %d)", float64(line.Failed)/float64(line.Attempted), line.Failed, line.Attempted)
	if !strings.Contains(stdout.String(), "metric ops_failed_ratio") || !strings.Contains(stdout.String(), ratioLine) {
		t.Errorf("output lacks the ops_failed_ratio line %q:\n%s", ratioLine, stdout.String())
	}
}

func TestDigest(t *testing.T) {
	mk := func(v float64) *timeseries.Series {
		s := timeseries.New("p")
		t0 := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 4; i++ {
			s.Append(t0.Add(time.Duration(i)*time.Minute), v+float64(i))
		}
		return s
	}
	type row struct {
		S *timeseries.Series
		M map[string]float64
	}
	a, err := digest(row{mk(1), map[string]float64{"x": 1, "y": 2}})
	if err != nil {
		t.Fatal(err)
	}
	s := mk(1)
	s.Median() // fills the series' sort cache, which is not output
	b, _ := digest(row{s, map[string]float64{"y": 2, "x": 1}})
	if a != b {
		t.Errorf("equal values digest differently: %s vs %s", a, b)
	}
	c, _ := digest(row{mk(1.0000000000000002), map[string]float64{"x": 1, "y": 2}})
	if a == c {
		t.Error("a one-ulp change did not change the digest")
	}
}

// TestOptimizeMatchesRunOptimizeScale pins the optimize-1k op, which
// composes the optimizer's public calls itself so each can be timed, to
// the experiments entry point it stands for.
func TestOptimizeMatchesRunOptimizeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 1k-router closed loop twice")
	}
	r, err := newOptimize(pinnedSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.op(nil, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.check(pinnedSeed, res); err != nil {
		t.Fatal(err)
	}
	out := res.out.(*optimizeOut)
	row, err := experiments.RunOptimizeScale(experiments.OptimizeScaleConfig{
		Seed: pinnedSeed, Routers: 1000, Window: optWindow, Step: optStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.rep
	got := []any{len(rep.Steps), rep.Actions, rep.Vetoes, rep.Resimulates, rep.GuardrailViolations,
		rep.Transitions(), rep.PSUsShed, rep.SleepSavedJoules, out.estimate.RefinedLow}
	want := []any{row.Steps, row.Actions, row.Vetoes, row.Resimulates, row.GuardrailViolations,
		row.Transitions, row.PSUsShed, row.RealizedSavedJoules, row.EnvelopeLow}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("field %d: benchmark op %v, RunOptimizeScale %v", i, got[i], want[i])
		}
	}
}
