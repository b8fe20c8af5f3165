package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fantasticjoules/internal/telemetry"
)

// The probes below read the process from the outside: getrusage for CPU
// time, runtime.ReadMemStats and runtime/metrics for the allocator and
// GC, the program's own telemetry registry for simulated work, and /proc
// for RSS and steal.
// Every probe is a synchronous read taken by the benchmark goroutine
// between ops; no sampler goroutine runs.

// Runtime readings, indexes into sample.rt. Allocation and GC counts
// come from runtime.ReadMemStats, which flushes every P's allocation
// cache first: runtime/metrics counts small allocations only when a
// span is refilled, so a delta over a call that makes 10 allocations of
// 64 B can read 0. GC CPU time comes from runtime/metrics.
const (
	rtAllocBytes = iota
	rtAllocObjects
	rtGCCycles
	rtGCCPU
	rtTotalCPU
	nRT
)

var cpuClassNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// Telemetry readings the benchmark diffs across an op: every counter,
// gauge and histogram sum the program exports that a workload touches.
const (
	telSteps = iota
	telRoutersReplayed
	telEventsApplied
	telMeterSamples
	telShardsReplayed
	telShardsReused
	telChunkSplices
	telStreamChunks
	telStreamChunkBytes
	telMemoHits
	telMemoMisses
	telInvalidations
	telOptActions
	telOptVetoes
	telOptResimulates
	telFleetChunkBytes // gauge
	telShardSeconds    // histogram sum
	telGuardrailSecs   // histogram sum
	nTel
)

// telReaders resolves each reading once; the registry hands back the
// metric the instrumented package registered at init.
var telReaders = func() [nTel]func() float64 {
	reg := telemetry.Default()
	counter := func(name string) func() float64 {
		c := reg.Counter(name, "")
		return func() float64 { return float64(c.Value()) }
	}
	histSum := func(name string) func() float64 {
		h := reg.Histogram(name, "", nil)
		return h.Sum
	}
	return [nTel]func() float64{
		telSteps:            counter("ispnet_steps_total"),
		telRoutersReplayed:  counter("ispnet_routers_replayed_total"),
		telEventsApplied:    counter("ispnet_events_applied_total"),
		telMeterSamples:     counter("ispnet_meter_samples_total"),
		telShardsReplayed:   counter("ispnet_shards_replayed_total"),
		telShardsReused:     counter("ispnet_shards_reused_total"),
		telChunkSplices:     counter("ispnet_fleet_chunk_splices_total"),
		telStreamChunks:     counter("ispnet_stream_chunks_total"),
		telStreamChunkBytes: counter("ispnet_stream_chunk_bytes_total"),
		telMemoHits:         counter("experiments_memo_hits_total"),
		telMemoMisses:       counter("experiments_memo_misses_total"),
		telInvalidations:    counter("experiments_cell_epoch_invalidations_total"),
		telOptActions:       counter("optimizer_actions_total"),
		telOptVetoes:        counter("optimizer_vetoes_total"),
		telOptResimulates:   counter("optimizer_resimulates_total"),
		telFleetChunkBytes:  reg.Gauge("ispnet_fleet_chunk_bytes", "").Value,
		telShardSeconds:     histSum("ispnet_shard_replay_seconds"),
		telGuardrailSecs:    histSum("optimizer_guardrail_seconds"),
	}
}()

// sample is one reading of every probe.
type sample struct {
	wall time.Time
	cpu  time.Duration
	rt   [nRT]float64
	tel  [nTel]float64
}

// delta is the difference of two samples: what one op (or span) cost.
type delta struct {
	wall time.Duration
	cpu  time.Duration
	rt   [nRT]float64
	tel  [nTel]float64
}

// prober owns the reusable read buffers, so probing allocates nothing.
type prober struct {
	ms  runtime.MemStats
	cpu []metrics.Sample
}

func newProber() *prober {
	p := &prober{cpu: make([]metrics.Sample, len(cpuClassNames))}
	for i, name := range cpuClassNames {
		p.cpu[i].Name = name
	}
	return p
}

// allocs reads only the allocator counters, for spans.
func (p *prober) allocs() (bytes, objects float64) {
	runtime.ReadMemStats(&p.ms)
	return float64(p.ms.TotalAlloc), float64(p.ms.Mallocs)
}

// read takes a full sample. The wall clock is read last so that the
// probe's own cost falls outside the interval that follows it.
func (p *prober) read() sample {
	var s sample
	s.rt[rtAllocBytes], s.rt[rtAllocObjects] = p.allocs()
	s.rt[rtGCCycles] = float64(p.ms.NumGC)
	metrics.Read(p.cpu)
	s.rt[rtGCCPU] = p.cpu[0].Value.Float64()
	s.rt[rtTotalCPU] = p.cpu[1].Value.Float64()
	for i, r := range telReaders {
		s.tel[i] = r()
	}
	s.cpu = processCPU()
	s.wall = time.Now()
	return s
}

// readEnd is read with the wall clock first, so the probe's cost falls
// outside the interval that precedes it.
func (p *prober) readEnd() sample {
	wall := time.Now()
	s := p.read()
	s.wall = wall
	return s
}

func (a sample) sub(b sample) delta {
	d := delta{wall: a.wall.Sub(b.wall), cpu: a.cpu - b.cpu}
	for i := range d.rt {
		d.rt[i] = a.rt[i] - b.rt[i]
	}
	for i := range d.tel {
		d.tel[i] = a.tel[i] - b.tel[i]
	}
	return d
}

// processCPU returns the user+system CPU time of every thread of the
// process. Unlike wall time it does not grow while the hypervisor
// steals the CPU.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process high-water RSS (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / mb
				}
			}
		}
	}
	// Linux reports ru_maxrss in KiB.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mb
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	steal, total uint64
}

// readCPUTicks returns the host-wide CPU tick counters, or zeros where
// /proc/stat is unavailable.
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of all host CPU ticks between a and b that
// the hypervisor stole.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
