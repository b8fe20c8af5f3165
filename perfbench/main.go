// Command perfbench is the repository's benchmark: it runs one workload
// closed loop for a fixed time, checks every op's output, and prints
// every metric by name with its unit. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload paper-cold --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// reports the per-layer ledger instead: spans around every public call
// an op makes, deltas of the program's own telemetry, and the Chrome
// trace-event file the spans were written to. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRuns is how many times a run sets up; setup_s is their median.
// Only the last setup's state is kept for the timed ops.
const setupRuns = 3

// workers fixes the simulation workers and GOMAXPROCS, so that runs
// compare across hosts. It is one: on a shared two-core VM, runs with two
// workers waited at every fold for whichever core the hypervisor held,
// and their op wall time spread by up to 42 % across runs, much more than
// their CPU time. With one worker, op wall time follows CPU time.
const workers = 1

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

// opRecord is one timed op.
type opRecord struct {
	id     int
	traced bool
	failed bool
	d      delta
	layer  map[string]float64
}

// runResult is everything one run measured.
type runResult struct {
	setup     []float64 // seconds per setup
	ops       []opRecord
	failed    int
	finishErr error
	steal     float64
	gcCycles  float64
	peakRSS   float64
	tr        *tracer
	// facts are the first op's output statistics, where every op
	// computes the same thing.
	facts []fact
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-cold, whatif-107, stream-10k or optimize-1k")
	fs.Int64Var(&o.seed, "seed", pinnedSeed, "workload seed; the program receives only inputs generated from it")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the timed ops run")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer ledger from a traced run instead of the end-to-end metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file of a traced run (default .bench_build/perfbench-<workload>-<seed>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload paper-cold|whatif-107|stream-10k|optimize-1k, --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.trace.json", o.workload, o.seed))
	}

	runtime.GOMAXPROCS(workers)
	res, err := bench(w, o, workers, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	gcMin, gcMax := math.Inf(1), math.Inf(-1)
	for _, op := range res.ops {
		gcMin, gcMax = math.Min(gcMin, op.d.rt[rtGCCycles]), math.Max(gcMax, op.d.rt[rtGCCycles])
	}
	fmt.Fprintf(stdout, "env workload=%s seed=%d nproc=%d gomaxprocs=%d workers=%d go=%s host.steal_share=%.4f gc_cycles=%.0f gc_cycles_per_op=%.0f..%.0f ops=%d setups=%d\n",
		o.workload, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(),
		res.steal, res.gcCycles, gcMin, gcMax, len(res.ops), len(res.setup))
	for _, f := range res.facts {
		fmt.Fprintf(stdout, "fact %s %s\n", f.name, f.value)
	}
	var ms []metric
	if o.trace {
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err == nil {
			err = res.tr.writeChromeTrace(o.traceOut)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		printLedger(stdout, res)
		fmt.Fprintf(stdout, "trace %s (%d spans; open in ui.perfetto.dev or chrome://tracing)\n", o.traceOut, len(res.tr.spans))
		ms = perLayer(res)
	} else {
		ms = endToEnd(res)
		printExtras(stdout, res)
	}
	if err := validateMetrics(ms); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, m := range ms {
		fmt.Fprintf(stdout, "metric %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}

	correct := res.failed == 0 && res.finishErr == nil
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, len(res.ops), res.failed, map[string]jsonMetric{}}
	for _, m := range ms {
		line.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !correct {
		return 1
	}
	return 0
}

// bench sets the workload up setupRuns times, then runs timed ops until
// o.seconds have passed. Noise controls, each aimed at a cause of
// run-to-run drift measured on a two-core VM:
//   - a runtime.GC() before every setup and every op, outside the timed
//     region, so each op starts from the same heap and runs the same
//     number of GC cycles;
//   - one discarded warm-up op per setup, so lazy set-up is never timed;
//   - one worker and GOMAXPROCS 1, so op wall time follows CPU time;
//   - no sampler goroutine: every probe is read synchronously between ops.
func bench(w *workload, o options, workers int, stderr io.Writer) (*runResult, error) {
	res := &runResult{}
	pr := newProber()
	var r runner
	for k := 0; k < setupRuns; k++ {
		r = nil
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = w.setup(o.seed, workers); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		warm, err := r.op(nil, -1, -1)
		res.setup = append(res.setup, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		if err := r.check(o.seed, warm); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}

	if o.trace {
		res.tr = newTracer()
	}
	ticks := readCPUTicks()
	first := pr.read()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for id := 0; id == 0 || time.Now().Before(deadline); id++ {
		// A traced run alternates untraced and traced ops; the difference
		// of their medians is the tracing overhead.
		traced := o.trace && id%2 == 1
		var tr *tracer
		if traced {
			tr = res.tr
		}
		runtime.GC()
		before := pr.read()
		root := tr.begin("op", -1, id)
		out, err := r.op(tr, root, id)
		tr.end(root)
		after := pr.readEnd()
		rec := opRecord{id: id, traced: traced, d: after.sub(before), layer: out.layer}
		if err == nil {
			err = r.check(o.seed, out)
		}
		if err == nil && traced {
			runtime.GC()
			err = r.probe(tr, id)
		}
		if err != nil {
			rec.failed = true
			res.failed++
			if res.failed <= 3 {
				fmt.Fprintf(stderr, "perfbench: op %d failed: %v\n", id, err)
			}
		}
		res.ops = append(res.ops, rec)
	}
	last := pr.read()
	res.steal = stealShare(ticks, readCPUTicks())
	res.gcCycles = last.rt[rtGCCycles] - first.rt[rtGCCycles]
	if fr, ok := r.(interface{ firstFacts() []fact }); ok {
		res.facts = fr.firstFacts()
	}
	// Read before finish: the end-of-run check may replay cold.
	res.peakRSS = peakRSSMB()
	if err := r.finish(); err != nil {
		res.finishErr = err
		fmt.Fprintf(stderr, "perfbench: end-of-run check failed: %v\n", err)
	}
	return res, nil
}
