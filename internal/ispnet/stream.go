package ispnet

import (
	"encoding/binary"
	"sort"

	"fantasticjoules/internal/telemetry"
	"fantasticjoules/internal/timeseries"
)

// Streaming simulation mode. A cold run folds each router into the
// network totals as soon as the replay pipeline hands it over, so at most
// the pipeline's window of step buffers is ever live. RunStream is that
// same run with one more consumer step: after a router is folded, its
// per-router series spill to a SeriesSink as columnar chunks, and the
// buffers go back to the pipeline. Peak heap is O(fleet metadata) +
// O(window × steps) regardless of duration, and the Dataset is the cold
// run's own fold — bit-identical by construction (stream_test.go checks
// it under the DiffDatasets oracle).

// streamChunkPoints is the spill chunk size: 1024 points ≈ 9 KB encoded,
// small enough to buffer, large enough to amortize the sink call.
const streamChunkPoints = 1024

// SeriesSink receives the per-router series a streaming run spills. Chunks
// use the timeseries.AppendChunk encoding; within one (router, series)
// pair they arrive in time order. The sink is called from the consumer
// goroutine only — implementations need no locking — and the chunk buffer
// is reused after the call returns, so a sink that keeps data must copy
// it. Every router spills "power" and "traffic" series on the SNMP step
// grid; instrumented routers additionally spill their autopower, snmp,
// and per-interface rate traces.
type SeriesSink interface {
	WriteChunk(router, series string, chunk []byte) error
}

// DiscardSink is a SeriesSink that only counts what flows through it —
// the sink for throughput benchmarks and for runs that want the bounded
// memory profile without retaining traces.
type DiscardSink struct {
	// Chunks, Points, and Bytes tally the spilled volume.
	Chunks, Points, Bytes int64
}

// WriteChunk implements SeriesSink.
func (d *DiscardSink) WriteChunk(router, series string, chunk []byte) error {
	n, _ := binary.Uvarint(chunk)
	d.Chunks++
	d.Points += int64(n)
	d.Bytes += int64(len(chunk))
	return nil
}

var (
	metricStreamRuns = telemetry.Default().Counter("ispnet_stream_runs_total",
		"streaming fleet replays started (Network.RunStream calls)")
	metricStreamChunks = telemetry.Default().Counter("ispnet_stream_chunks_total",
		"columnar chunks spilled to SeriesSinks")
	metricStreamChunkBytes = telemetry.Default().Counter("ispnet_stream_chunk_bytes_total",
		"encoded bytes spilled to SeriesSinks")
)

// SimulateStream builds the network for the config and plays the study
// window in streaming mode: the Dataset aggregates are identical to
// Simulate's, per-router series spill to the sink, and peak memory is
// bounded by the worker window instead of the fleet-duration product.
func SimulateStream(cfg Config, sink SeriesSink) (*Dataset, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return n.RunStream(sink)
}

// RunStream plays the study window over the already-built network in
// streaming mode; see the header comment above. It requires a freshly
// built network. The returned Dataset carries the same aggregates and
// instrumented-router traces as a cold Simulate — bit-identical for the
// same config — while every router's full-resolution power and traffic
// series go to the sink instead of the heap.
func (n *Network) RunStream(sink SeriesSink) (*Dataset, error) {
	metricStreamRuns.Inc()
	return n.run(nil, sink)
}

// spiller is a streamed run's consumer: it spills each folded router's
// series to the sink, power and traffic first, then an instrumented
// router's autopower, snmp and per-interface rate traces.
type spiller struct {
	sink  SeriesSink
	nanos []int64
	buf   []byte
}

// spill spills a played shard's series and keeps none of its buffers.
func (s *spiller) spill(_ int, sh *routerShard) (bool, error) {
	r := sh.router
	if err := s.write(r.Name, "power", s.nanos, sh.power); err != nil {
		return false, err
	}
	if err := s.write(r.Name, "traffic", s.nanos, sh.traffic); err != nil {
		return false, err
	}
	if sh.autopower == nil {
		return false, nil
	}
	series := []*timeseries.Series{sh.autopower}
	if sh.snmp != nil {
		series = append(series, sh.snmp)
	}
	// Rates in sorted interface order, so the sink sees a deterministic
	// chunk sequence.
	names := make([]string, 0, len(sh.rates))
	for name := range sh.rates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		series = append(series, sh.rates[name])
	}
	for _, ser := range series {
		if err := ser.Blocks(0, func(ts []int64, vs []float64) error {
			return s.write(r.Name, ser.Name, ts, vs)
		}); err != nil {
			return false, err
		}
	}
	return false, nil
}

// write encodes parallel columns as streamChunkPoints-sized chunks and
// hands each one to the sink.
func (s *spiller) write(router, series string, ts []int64, vs []float64) error {
	for i := 0; i < len(vs); i += streamChunkPoints {
		j := min(i+streamChunkPoints, len(vs))
		s.buf = timeseries.AppendChunk(s.buf[:0], ts[i:j], vs[i:j])
		metricStreamChunks.Inc()
		metricStreamChunkBytes.Add(uint64(len(s.buf)))
		if err := s.sink.WriteChunk(router, series, s.buf); err != nil {
			return err
		}
	}
	return nil
}
