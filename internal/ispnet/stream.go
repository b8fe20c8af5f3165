package ispnet

import (
	"runtime"
	"sort"
	"sync"

	"fantasticjoules/internal/telemetry"
	"fantasticjoules/internal/timeseries"
)

// Streaming simulation mode. Run keeps every shard's full-window buffers
// alive until the final reduction, so its peak heap grows with the
// fleet-size × duration product — a 9-week 100k-router run does not fit.
// RunStream replaces the keep-everything join with a bounded-window
// ordered fold:
//
//	producer  builds shards lazily, attaches pooled step buffers, and
//	          admits at most workers+2 in-flight shards
//	workers   play shards concurrently, exactly as Run does
//	consumer  (the calling goroutine) folds finished shards into the
//	          dataset aggregates in fleet order, spills their per-router
//	          series to the SeriesSink as columnar chunks, and recycles
//	          the buffers
//
// Peak heap is O(fleet metadata) + O(window × steps) regardless of
// duration. The fold accumulates the per-step totals shard by shard in
// fleet order — the identical floating-point addition sequence Run's
// reduction performs — so the produced Dataset is bit-identical to Run's
// (stream_test.go proves it under the DiffDatasets oracle).

// streamChunkPoints is the spill chunk size: 1024 points ≈ 9 KB encoded,
// small enough to buffer, large enough to amortize the sink call.
const streamChunkPoints = 1024

// streamWindowSlack is how many shards beyond the worker count may be in
// flight: finished shards waiting for their in-order fold turn.
const streamWindowSlack = 2

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
	n, _ := uvarintHead(chunk)
	d.Chunks++
	d.Points += int64(n)
	d.Bytes += int64(len(chunk))
	return nil
}

// uvarintHead reads the point-count header of an encoded chunk.
func uvarintHead(chunk []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range chunk {
		if b < 0x80 {
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
		if s >= 64 {
			break
		}
	}
	return 0, 0
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
// streaming mode; see the package comment above. Like Run, it requires a
// freshly built network. The returned Dataset carries the same aggregates
// and instrumented-router traces as Run — bit-identical for the same
// config — while every router's full-resolution power and traffic series
// go to the sink instead of the heap.
func (n *Network) RunStream(sink SeriesSink) (*Dataset, error) {
	return n.RunStreamWithEvents(nil, sink)
}

// streamSlot is one in-flight shard: the worker closes done when the
// shard has played, and the consumer folds slots strictly in fleet order.
type streamSlot struct {
	sh   *routerShard
	bufs *streamBufs
	done chan struct{}
}

// streamBufs is the pooled per-shard working set.
type streamBufs struct {
	power, traffic, wall []float64
}

// RunStreamWithEvents is RunStream with extra declarative events merged
// into the built-in schedule, mirroring RunWithEvents.
func (n *Network) RunStreamWithEvents(extra []FleetEvent, sink SeriesSink) (*Dataset, error) {
	metricRuns.Inc()
	metricStreamRuns.Inc()
	run, err := n.prepareRun(extra)
	if err != nil {
		return nil, err
	}
	grid := run.grid
	steps := len(grid.nanos)

	workers := n.Config.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(n.Routers) {
		workers = len(n.Routers)
	}
	window := workers + streamWindowSlack

	// The bounded pipeline. slots preserves fleet order and its buffer is
	// the admission window: the producer blocks once window shards are in
	// flight, so at most window step-buffer sets exist at any instant.
	pool := sync.Pool{New: func() any { return &streamBufs{} }}
	slots := make(chan *streamSlot, window)
	work := make(chan *streamSlot)
	go func() {
		for _, r := range n.Routers {
			sh := run.shard(r)
			bufs := pool.Get().(*streamBufs)
			sh.power = zeroedFloats(bufs.power, steps)
			sh.traffic = zeroedFloats(bufs.traffic, steps)
			sh.wall = bufs.wall[:0]
			//jouleslint:ignore scratchsafety -- bounded handoff: the fold is the slot's only consumer and puts the buffers back before admitting another slot past the window
			s := &streamSlot{sh: sh, bufs: bufs, done: make(chan struct{})}
			slots <- s
			work <- s
		}
		close(slots)
		close(work)
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				s.sh.err = s.sh.playInstrumented()
				close(s.done)
			}
		}()
	}

	// The consumer folds in fleet order on the calling goroutine.
	ds := newDataset(n, steps, run.capacity, describeFleetEvents(run.evs))
	totalPower := make([]float64, steps)
	totalTraffic := make([]float64, steps)
	var encBuf []byte
	spill := func(router, series string, ts []int64, vs []float64) error {
		for i := 0; i < len(vs); i += streamChunkPoints {
			j := i + streamChunkPoints
			if j > len(vs) {
				j = len(vs)
			}
			encBuf = timeseries.AppendChunk(encBuf[:0], ts[i:j], vs[i:j])
			metricStreamChunks.Inc()
			metricStreamChunkBytes.Add(uint64(len(encBuf)))
			if err := sink.WriteChunk(router, series, encBuf); err != nil {
				return err
			}
		}
		return nil
	}
	spillSeries := func(router string, s *timeseries.Series) error {
		return s.Blocks(streamChunkPoints, func(ts []int64, vs []float64) error {
			encBuf = timeseries.AppendChunk(encBuf[:0], ts, vs)
			metricStreamChunks.Inc()
			metricStreamChunkBytes.Add(uint64(len(encBuf)))
			return sink.WriteChunk(router, s.Name, encBuf)
		})
	}
	fold := func(sh *routerShard) error {
		// Identical addition sequence to Run's reduction: at every step,
		// shard contributions accumulate in fleet order.
		for si := range totalPower {
			totalPower[si] += sh.power[si]
			totalTraffic[si] += sh.traffic[si]
		}
		if err := spill(sh.router.Name, "power", grid.nanos, sh.power); err != nil {
			return err
		}
		if err := spill(sh.router.Name, "traffic", grid.nanos, sh.traffic); err != nil {
			return err
		}
		r := sh.router
		ds.addShard(sh)
		if sh.meter != nil {
			if err := spillSeries(r.Name, sh.autopower); err != nil {
				return err
			}
			if sh.snmp != nil {
				if err := spillSeries(r.Name, sh.snmp); err != nil {
					return err
				}
			}
			// Rates in sorted interface order, so the sink sees a
			// deterministic chunk sequence.
			names := make([]string, 0, len(sh.rates))
			for name := range sh.rates {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if err := spillSeries(r.Name, sh.rates[name]); err != nil {
					return err
				}
			}
		}
		return nil
	}

	var firstErr error
	for s := range slots {
		<-s.done
		sh := s.sh
		if firstErr == nil {
			if sh.err != nil {
				firstErr = sh.err
			} else if err := fold(sh); err != nil {
				firstErr = err
			}
		}
		// Recycle the step buffers (wall may have grown under append).
		s.bufs.power, s.bufs.traffic, s.bufs.wall = sh.power, sh.traffic, sh.wall
		sh.power, sh.traffic, sh.wall = nil, nil, nil
		pool.Put(s.bufs)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	ds.TotalPower.AppendBlock(grid.nanos, totalPower)
	ds.TotalTraffic.AppendBlock(grid.nanos, totalTraffic)
	return ds, nil
}

// zeroedFloats returns buf resized to n and zero-filled, reallocating
// only when the pooled capacity is short. Pooled buffers carry the
// previous shard's samples; a shard relies on undeployed steps reading 0.
func zeroedFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
