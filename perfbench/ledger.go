package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

const mb = 1e6

// endToEnd computes the metrics a user of the simulator sees, from the
// ops that passed their checks.
func endToEnd(res *runResult) []metric {
	var wall, cpu, rate, alloc []float64
	for _, o := range res.ops {
		if o.failed {
			continue
		}
		wall = append(wall, ms(o.d.wall))
		cpu = append(cpu, ms(o.d.cpu))
		rate = append(rate, ratio(o.d.tel[telSteps], o.d.wall.Seconds()))
		alloc = append(alloc, o.d.rt[rtAllocBytes]/mb)
	}
	return []metric{
		{"setup_s", median(res.setup), "s"},
		{"op_ms_p50", median(wall), "ms"},
		{"op_cpu_ms_p50", median(cpu), "ms"},
		{"router_steps_per_s", median(rate), "1/s"},
		{"alloc_mb_per_op", median(alloc), "MB"},
		{"peak_rss_mb", res.peakRSS, "MB"},
	}
}

// printExtras prints the end-to-end numbers the result line leaves out:
// the tail percentile, which only some runs hold enough ops for, and the
// failure ratio, which the result line carries as attempted and failed.
// It also lists every set-up and op time, so drift within a run shows.
func printExtras(w io.Writer, res *runResult) {
	var wall []float64
	for _, o := range res.ops {
		if !o.failed {
			wall = append(wall, ms(o.d.wall))
		}
	}
	if p, ok := tailPercentile(len(wall)); ok {
		fmt.Fprintf(w, "metric %-32s %14.6g ms (%d ops)\n", fmt.Sprintf("op_ms_p%.0f", p*100), percentile(wall, p), len(wall))
	} else {
		fmt.Fprintf(w, "metric %-32s %14s ms (%d ops < 100: fewer than 10 beyond p90)\n", "op_ms_p90", "n/a", len(wall))
	}
	fmt.Fprintf(w, "metric %-32s %14.6g ratio (%d of %d)\n", "ops_failed_ratio", ratio(float64(res.failed), float64(len(res.ops))), res.failed, len(res.ops))
	fmt.Fprintf(w, "detail setup_s.each %.3f\n", res.setup)
	fmt.Fprintf(w, "detail op_ms.each %.1f\n", wall)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ledger indexes a traced run's spans by op.
type ledger struct {
	spans []span
	self  []time.Duration
	// root maps each span to the root of its tree: the op span, or a
	// probe that ran alone.
	root []int
	ops  []int // ids of traced ops, in order
	byOp map[int][]int
}

func newLedger(res *runResult) *ledger {
	l := &ledger{spans: res.tr.spans, byOp: map[int][]int{}}
	l.self = selfTimes(l.spans)
	l.root = make([]int, len(l.spans))
	for i, sp := range l.spans {
		l.root[i] = i
		if sp.parent >= 0 {
			l.root[i] = l.root[sp.parent] // parents precede children
		}
		l.byOp[sp.op] = append(l.byOp[sp.op], i)
	}
	for _, o := range res.ops {
		if o.traced && !o.failed {
			l.ops = append(l.ops, o.id)
		}
	}
	return l
}

// perOp returns, for each traced op, f summed over the op's spans named
// name; ok is false when no op has such a span.
func (l *ledger) perOp(name string, f func(i int) float64) (vals []float64, ok bool) {
	for _, id := range l.ops {
		v := 0.0
		for _, i := range l.byOp[id] {
			if l.spans[i].name == name {
				v += f(i)
				ok = true
			}
		}
		vals = append(vals, v)
	}
	return vals, ok
}

func (l *ledger) dur(i int) float64     { return ms(l.spans[i].end - l.spans[i].start) }
func (l *ledger) selfMS(i int) float64  { return ms(l.self[i]) }
func (l *ledger) bytes(i int) float64   { return l.spans[i].allocBytes }
func (l *ledger) objects(i int) float64 { return l.spans[i].allocObjects }
func (l *ledger) inOp(i int) bool       { return l.spans[l.root[i]].name == "op" }
func (l *ledger) opSpan(id int) (int, bool) {
	for _, i := range l.byOp[id] {
		if l.spans[i].name == "op" {
			return i, true
		}
	}
	return 0, false
}

// medianOf is the median over traced ops of f summed over spans named
// name, or 0 when the workload makes no such call.
func (l *ledger) medianOf(name string, f func(i int) float64) float64 {
	vals, ok := l.perOp(name, f)
	if !ok {
		return 0
	}
	return median(vals)
}

// shareOf is the median over traced ops of (f over spans named num) ÷
// (g over spans named den), or 0 when either call is missing.
func (l *ledger) shareOf(num string, f func(i int) float64, den string, g func(i int) float64) float64 {
	a, okA := l.perOp(num, f)
	b, okB := l.perOp(den, g)
	if !okA || !okB {
		return 0
	}
	r := make([]float64, len(a))
	for i := range a {
		r[i] = ratio(a[i], b[i])
	}
	return median(r)
}

// perLayer computes the per-layer metrics of a traced run. Counts are
// telemetry deltas per op over every op; times come from the traced
// ops' spans. A layer the workload does not exercise reads 0.
func perLayer(res *runResult) []metric {
	l := newLedger(res)
	var ok []opRecord
	for _, o := range res.ops {
		if !o.failed {
			ok = append(ok, o)
		}
	}
	op := func(f func(o opRecord) float64) float64 {
		vals := make([]float64, len(ok))
		for i, o := range ok {
			vals[i] = f(o)
		}
		return median(vals)
	}
	tel := func(k int) float64 { return op(func(o opRecord) float64 { return o.d.tel[k] }) }

	var tracedWall, plainWall []float64
	for _, o := range ok {
		if o.traced {
			tracedWall = append(tracedWall, ms(o.d.wall))
		} else {
			plainWall = append(plainWall, ms(o.d.wall))
		}
	}
	runMS := l.medianOf("optimizer.run", l.dur)
	runBusyMS := l.medianOf("optimizer.run", func(i int) float64 { return l.spans[i].busy * 1e3 })
	guardrailMS := tel(telGuardrailSecs) * 1e3

	out := []metric{
		{"build.ms", l.medianOf("build", l.dur), "ms"},
		{"build.alloc_mb", l.medianOf("build", l.bytes) / mb, "MB"},
		{"build.objects", l.medianOf("build", l.objects), "count"},
		{"build.share_alloc", l.shareOf("build", l.bytes, "op", l.bytes), "ratio"},
		{"build.share_objects", l.shareOf("build", l.objects, "op", l.objects), "ratio"},

		{"play.busy_s", tel(telShardSeconds), "s"},
		{"play.shards", tel(telRoutersReplayed), "count"},
		{"play.steps", tel(telSteps), "count"},
		{"play.events", tel(telEventsApplied), "count"},
		{"play.meter_samples", tel(telMeterSamples), "count"},
		{"play.ns_per_step", op(func(o opRecord) float64 {
			return ratio(o.d.tel[telShardSeconds]*1e9, o.d.tel[telSteps])
		}), "ns"},

		{"fleet.resimulate_ms", l.medianOf("fleet.resimulate", l.dur), "ms"},
		{"fleet.resimulate_objects", l.medianOf("fleet.resimulate", l.objects), "count"},
		{"fleet.build_share_objects", l.shareOf("build", l.objects, "fleet.resimulate", l.objects), "ratio"},
		{"fleet.shards_replayed", tel(telShardsReplayed), "count"},
		{"fleet.shards_reused", tel(telShardsReused), "count"},
		{"fleet.replay_per_dirty", op(func(o opRecord) float64 {
			return ratio(o.d.tel[telShardsReplayed]-o.layer["fleet.cold_plays"], o.layer["fleet.perturbed"])
		}), "ratio"},
		{"fleet.rebuild_share", rebuildShare(l, ok), "ratio"},
		{"fleet.chunk_splices", tel(telChunkSplices), "count"},
		{"fleet.chunk_mb", tel(telFleetChunkBytes) / mb, "MB"},

		{"stream.run_ms", l.medianOf("stream.run", l.selfMS), "ms"},
		{"stream.sink_ms", l.medianOf("stream.sink", l.dur), "ms"},
		{"stream.chunks", tel(telStreamChunks), "count"},
		{"stream.chunk_mb", tel(telStreamChunkBytes) / mb, "MB"},
		{"stream.bytes_per_point", op(func(o opRecord) float64 {
			return ratio(o.d.tel[telStreamChunkBytes], o.layer["stream.points"])
		}), "B"},
	}
	for _, c := range []string{"dataset", "fig1", "fig4", "fig9", "table2", "table3", "table4", "section7", "section8"} {
		out = append(out, metric{"cell." + c + ".ms", l.medianOf("cell."+c, l.dur), "ms"})
	}
	out = append(out,
		metric{"cells.memo_hit_ratio", op(func(o opRecord) float64 {
			return ratio(o.d.tel[telMemoHits], o.d.tel[telMemoHits]+o.d.tel[telMemoMisses])
		}), "ratio"},
		metric{"cells.invalidations", tel(telInvalidations), "count"},

		metric{"rig.ms", l.medianOf("rig", l.dur), "ms"},
		metric{"hypnos.from_network_ms", l.medianOf("hypnos.from_network", l.dur), "ms"},
		metric{"hypnos.evaluate_ms", l.medianOf("hypnos.evaluate", l.dur), "ms"},
		metric{"optimizer.run_ms", runMS, "ms"},
		metric{"optimizer.guardrail_ms", guardrailMS, "ms"},
		metric{"optimizer.self_ms", runMS - guardrailMS - runBusyMS, "ms"},
		metric{"optimizer.steps", op(func(o opRecord) float64 { return o.layer["optimizer.steps"] }), "count"},
		metric{"optimizer.actions", tel(telOptActions), "count"},
		metric{"optimizer.vetoes", tel(telOptVetoes), "count"},
		metric{"optimizer.veto_ratio", op(func(o opRecord) float64 {
			return ratio(o.d.tel[telOptVetoes], o.d.tel[telOptVetoes]+o.d.tel[telOptActions])
		}), "ratio"},
		metric{"optimizer.resimulates", tel(telOptResimulates), "count"},

		metric{"gc.cycles", op(func(o opRecord) float64 { return o.d.rt[rtGCCycles] }), "count"},
		metric{"gc.cpu_share", op(func(o opRecord) float64 {
			return ratio(o.d.rt[rtGCCPU], o.d.rt[rtTotalCPU])
		}), "ratio"},
		metric{"alloc.objects", op(func(o opRecord) float64 { return o.d.rt[rtAllocObjects] }), "count"},
		metric{"host.steal_share", res.steal, "ratio"},

		metric{"ledger.unattributed_share", l.shareOf("op", l.selfMS, "op", l.dur), "ratio"},
		metric{"trace.op_ms_p50", median(tracedWall), "ms"},
		metric{"trace.overhead_ms", median(tracedWall) - median(plainWall), "ms"},
	)
	return out
}

// rebuildShare estimates the share of op wall time that Resimulate
// spends rebuilding the whole fleet: it calls Build once per call, so
// the isolated Build time times the Resimulates per op, over op wall.
func rebuildShare(l *ledger, ops []opRecord) float64 {
	var resims []float64
	for _, o := range ops {
		resims = append(resims, o.layer["fleet.resimulates"])
	}
	return ratio(median(resims)*l.medianOf("build", l.dur), l.medianOf("op", l.dur))
}

// The ledger reconciles when, on every traced op, the self times of the
// op's spans sum to the op's wall time within reconcileTolerance (they
// do by construction unless a span escaped its parent), and the op's own
// self time, which no layer span covers, stays under maxUnattributed.
const (
	reconcileTolerance = 0.01
	maxUnattributed    = 0.05
)

// printLedger prints each layer's self time inside the op, the isolated
// probes, and the reconciliation of the self times with op wall time.
func printLedger(w io.Writer, res *runResult) {
	l := newLedger(res)
	inOp, probes := map[string]bool{}, map[string]bool{}
	for i, sp := range l.spans {
		if l.inOp(i) {
			inOp[sp.name] = true
		} else {
			probes[sp.name] = true
		}
	}
	opWall := l.medianOf("op", l.dur)
	fmt.Fprintf(w, "ledger %d traced ops, op wall p50 %.3f ms\n", len(l.ops), opWall)
	fmt.Fprintf(w, "ledger %-24s %8s %12s %12s %8s %12s %12s\n", "layer", "calls", "dur_ms", "self_ms", "self%", "alloc_MB", "objects")
	for _, n := range sortedKeys(inOp) {
		calls := l.medianOf(n, func(int) float64 { return 1 })
		self := l.medianOf(n, l.selfMS)
		fmt.Fprintf(w, "ledger %-24s %8.0f %12.3f %12.3f %7.1f%% %12.3f %12.0f\n", n, calls,
			l.medianOf(n, l.dur), self, 100*ratio(self, opWall),
			l.medianOf(n, l.bytes)/mb, l.medianOf(n, l.objects))
	}
	for _, n := range sortedKeys(probes) {
		fmt.Fprintf(w, "probe  %-24s %.3f ms alone (isolated call, outside the op)\n", n, l.medianOf(n, l.dur))
	}

	// Self times of a span tree sum to its root's duration by
	// construction; a larger error means spans escaped their parent.
	worst := 0.0
	for _, id := range l.ops {
		root, ok := l.opSpan(id)
		if !ok {
			continue
		}
		sum := 0.0
		for _, i := range l.byOp[id] {
			if l.root[i] == root {
				sum += l.selfMS(i)
			}
		}
		worst = math.Max(worst, math.Abs(sum-l.dur(root))/l.dur(root))
	}
	unattributed := l.shareOf("op", l.selfMS, "op", l.dur)
	verdict := "reconciles"
	if worst > reconcileTolerance || unattributed > maxUnattributed {
		verdict = "DOES NOT reconcile"
	}
	fmt.Fprintf(w, "ledger %s: Σ span self time vs op wall off by at most %.4f%% (tolerance %.0f%%); unattributed op self time %.2f%% of op wall (tolerance %.0f%%)\n",
		verdict, 100*worst, 100*reconcileTolerance, 100*unattributed, 100*maxUnattributed)

	// The Build-or-play question: Build's share of what the op (or its
	// Resimulate) allocates, measured on the Build span or probe.
	if objs := l.medianOf("build", l.objects); objs > 0 {
		fmt.Fprintf(w, "attribution build: %.1f ms, %.1f MB, %.0f objects per call; %.1f%% of op wall, %.1f%% of op bytes, %.1f%% of op objects",
			l.medianOf("build", l.dur), l.medianOf("build", l.bytes)/mb, objs,
			100*l.shareOf("build", l.dur, "op", l.dur),
			100*l.shareOf("build", l.bytes, "op", l.bytes), 100*l.shareOf("build", l.objects, "op", l.objects))
		if s := l.shareOf("build", l.objects, "fleet.resimulate", l.objects); s > 0 {
			fmt.Fprintf(w, "; %.1f%% of fleet.resimulate objects (%.0f)", 100*s, l.medianOf("fleet.resimulate", l.objects))
		}
		fmt.Fprintln(w)
	}
	if s := rebuildShare(l, res.ops); s > 0 {
		fmt.Fprintf(w, "attribution rebuild: Resimulate's full-fleet Build, estimated as Resimulates per op × isolated build time, is %.1f%% of op wall\n", 100*s)
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
