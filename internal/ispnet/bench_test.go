package ispnet

import (
	"testing"
	"time"

	"fantasticjoules/internal/timeseries"
)

// benchSimulate times a cold fleet simulation — build plus replay — at the
// suite's working resolution over one week, at a fixed worker count.
func benchSimulate(b *testing.B, workers int) {
	b.Helper()
	cfg := Config{
		Seed:          42,
		Duration:      7 * 24 * time.Hour,
		SNMPStep:      15 * time.Minute,
		AutopowerStep: 5 * time.Minute,
		Workers:       workers,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSerial is the Workers=1 reference path.
func BenchmarkSimulateSerial(b *testing.B) { benchSimulate(b, 1) }

// BenchmarkSimulateParallel uses the default GOMAXPROCS-sized pool; the
// ratio to BenchmarkSimulateSerial is the sharding speedup on this
// machine.
func BenchmarkSimulateParallel(b *testing.B) { benchSimulate(b, 0) }

// benchSimulateStream times the bounded-memory streaming path — build,
// replay, spill — and reports simulated joules per wall-clock second, the
// fleet-throughput figure EXPERIMENTS.md tracks per fleet size.
func benchSimulateStream(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	var joules float64
	for i := 0; i < b.N; i++ {
		var sink DiscardSink
		ds, err := SimulateStream(cfg, &sink)
		if err != nil {
			b.Fatal(err)
		}
		joules += timeseries.IntegratePower(ds.TotalPower)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(joules/sec, "joules/s")
	}
}

// scaleBenchCfgs are the fleet sizes the scale benchmarks run at: the
// calibrated 107-router build at full study resolution, and generated
// 1k/10k fleets at coarser grids sized so one iteration stays in
// benchmark territory.
var scaleBenchCfgs = []struct {
	name string
	cfg  Config
}{
	{"routers=107", Config{
		Seed:          42,
		Duration:      7 * 24 * time.Hour,
		SNMPStep:      15 * time.Minute,
		AutopowerStep: 5 * time.Minute,
	}},
	{"routers=1k", Config{
		Seed:          42,
		Routers:       1000,
		Duration:      2 * 24 * time.Hour,
		SNMPStep:      30 * time.Minute,
		AutopowerStep: 30 * time.Minute,
	}},
	{"routers=10k", Config{
		Seed:          42,
		Routers:       10000,
		Duration:      24 * time.Hour,
		SNMPStep:      time.Hour,
		AutopowerStep: time.Hour,
	}},
}

// BenchmarkSimulateStream measures streaming throughput across fleet
// sizes (scaleBenchCfgs).
func BenchmarkSimulateStream(b *testing.B) {
	for _, c := range scaleBenchCfgs {
		b.Run(c.name, func(b *testing.B) { benchSimulateStream(b, c.cfg) })
	}
}

// BenchmarkBuild times Build alone on the SimulateStream configs: the
// deployment — routers, interfaces, wiring — with no device, since the
// replay materializes those per shard. SimulateStream minus Build is the
// replay, fold and spill.
func BenchmarkBuild(b *testing.B) {
	for _, c := range scaleBenchCfgs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// suiteCfg is the calibrated fleet at the experiment suite's working
// resolution: the 9-week window at 15-minute polls, played serially.
func suiteCfg() Config {
	return Config{
		Seed:          42,
		SNMPStep:      15 * time.Minute,
		AutopowerStep: 5 * time.Minute,
		Workers:       1,
	}
}

// coldJobs builds the network and stages every router's replay job for a
// cold run, ready to play.
func coldJobs(tb testing.TB, cfg Config) (*Network, *stepGrid, []replayJob) {
	tb.Helper()
	n, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	_, byRouter, err := n.schedule(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return n, n.stepGrid(), n.jobs(byRouter, n.meterSeeds())
}

// BenchmarkShardPlay times the replay pipeline alone — every shard of the
// calibrated fleet at the suite resolution, serially, handed to a
// consumer that keeps nothing — with Build, meter attachment and event
// compilation outside the timer, and reports the cost per router-step
// (one router advanced by one SNMP step).
func BenchmarkShardPlay(b *testing.B) {
	b.ReportAllocs()
	routerSteps := 0
	discard := func(int, *routerShard) (bool, error) { return false, nil }
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n, grid, jobs := coldJobs(b, suiteCfg())
		b.StartTimer()
		if err := (&player{workers: 1}).play(n, grid, jobs, discard); err != nil {
			b.Fatal(err)
		}
		routerSteps += len(jobs) * len(grid.times)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(routerSteps), "ns/router-step")
}

// BenchmarkFold times the fold alone: a Fleet replay with no dirty
// routers, which folds the 107 retained shards of the calibrated fleet at
// the suite resolution into the network totals, plus the per-router wall
// stats and traces. The fold reads the retained shards without mutating
// them.
func BenchmarkFold(b *testing.B) {
	f, err := NewFleet(suiteCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.replay(nil, f.described); err != nil {
			b.Fatal(err)
		}
	}
}
