package ispnet

import (
	"time"

	"fantasticjoules/internal/telemetry"
)

// Fleet-replay instrumentation. The metrics are write-only observers on
// the process-wide telemetry registry: the simulation never reads them
// back, each update is a handful of atomics at per-shard (not per-step)
// frequency, and the per-shard tallies are accumulated locally while the
// shard plays — so instrumented runs stay byte-identical (the golden
// Workers-1-vs-8 determinism test runs with these permanently enabled).
var (
	metricRuns = telemetry.Default().Counter("ispnet_runs_total",
		"full-fleet replays started (cold and streamed runs, NewFleet)")
	metricShardSeconds = telemetry.Default().Histogram("ispnet_shard_replay_seconds",
		"wall-clock duration of one router shard's full-window replay", nil)
	metricRouters = telemetry.Default().Counter("ispnet_routers_replayed_total",
		"router shards fully replayed")
	metricEvents = telemetry.Default().Counter("ispnet_events_applied_total",
		"scheduled deployment events applied during replays")
	metricSteps = telemetry.Default().Counter("ispnet_steps_total",
		"router×step simulation slots processed (deployed or not)")
	metricWallSamples = telemetry.Default().Counter("ispnet_wall_samples_total",
		"wall-power samples produced by deployed routers")
	metricMeterSamples = telemetry.Default().Counter("ispnet_meter_samples_total",
		"fine-grained external-meter (Autopower) samples produced")
	metricBusyWorkers = telemetry.Default().Gauge("ispnet_busy_workers",
		"replay workers currently playing a shard")
	metricShardsReplayed = telemetry.Default().Counter("ispnet_shards_replayed_total",
		"router shards replayed by the incremental Fleet path (dirty or cold)")
	metricShardsReused = telemetry.Default().Counter("ispnet_shards_reused_total",
		"router shards spliced back unchanged by Fleet.Resimulate")
)

// playInstrumented materializes and plays one shard, wrapped with its
// telemetry: worker-pool occupancy, replay duration, and the shard's
// sample/event tallies.
func (sh *routerShard) playInstrumented() error {
	metricBusyWorkers.Add(1)
	defer metricBusyWorkers.Add(-1)
	defer metricShardSeconds.ObserveSince(time.Now())
	err := sh.materialize()
	if err == nil {
		err = sh.play()
	}
	metricRouters.Inc()
	metricEvents.Add(uint64(sh.eventsApplied))
	metricSteps.Add(uint64(len(sh.grid.times)))
	metricWallSamples.Add(uint64(len(sh.wall)))
	if sh.autopower != nil {
		metricMeterSamples.Add(uint64(sh.autopower.Len()))
	}
	return err
}
