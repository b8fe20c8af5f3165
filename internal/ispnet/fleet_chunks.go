package ispnet

import (
	"fmt"
	"runtime"
	"sync"

	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/telemetry"
	"fantasticjoules/internal/timeseries"
)

// Chunk-retained fleet mode: the bounded-memory form of the incremental
// Fleet used for hierarchical (generated) configs, where retaining every
// router's live shard — three full-window float columns plus the replay
// plan — would put the fleet-size × duration product back on the heap
// that stream.go worked to get off it.
//
// Instead of live shards, the fleet retains each router's power and
// traffic columns as the same delta-of-delta columnar chunks RunStream
// spills (timeseries.AppendChunk), plus the two wall-power scalars and
// the PSU snapshot the dataset assembly needs. Encoded timestamps cost
// ≈1 byte/point on the regular SNMP grid and values keep their raw
// Float64bits — which is what makes the mode exact: a Resimulate decodes
// every clean router's chunks back into the fold (decode-on-splice) and
// accumulates the identical addition sequence, in fleet order, that the
// cold path's reduction performs. The golden and property tests pin
// DiffDatasets-bit-identity to cold SimulateWithEvents at 1k and 10k.
//
// The replay itself runs the bounded producer/worker/consumer pipeline of
// RunStream: at most workers+streamWindowSlack live shards exist at any
// instant, their step buffers pooled, so peak heap is O(fleet metadata) +
// O(window × steps) and steady-state heap is the encoded chunks.
//
// The mode is reserved for hierarchical fleets, which have no
// instrumented (Autopower) routers: the calibrated 107-router build keeps
// the live-shard path so its meter/SNMP/rate traces stay retained.

var (
	metricFleetChunkBytes = telemetry.Default().Gauge("ispnet_fleet_chunk_bytes",
		"encoded bytes retained by chunk-mode Fleets (all live fleets)")
	metricFleetChunkSplices = telemetry.Default().Counter("ispnet_fleet_chunk_splices_total",
		"clean-router chunk decodes spliced into Resimulate folds")
)

// routerChunks is one router's retained replay result in chunk mode: the
// encoded step columns plus the per-router results a live shard carries.
type routerChunks struct {
	power   []byte // AppendChunk-encoded (grid nanos, power) column
	traffic []byte // AppendChunk-encoded (grid nanos, traffic) column
	// wall is the router's wall stats, as its shard reduced them.
	wall wallStats
	// psus is the mid-window environment-sensor export (nil when the
	// router was not active at snapAt).
	psus []psu.Snapshot
}

// retainedBytes is the encoded footprint of one router's retention.
func (rc *routerChunks) retainedBytes() int { return len(rc.power) + len(rc.traffic) }

// appendChunked encodes parallel columns as a sequence of
// streamChunkPoints-sized chunks, appending to dst — the retention-side
// twin of the RunStream spill.
func appendChunked(dst []byte, ts []int64, vs []float64) []byte {
	for i := 0; i < len(vs); i += streamChunkPoints {
		j := i + streamChunkPoints
		if j > len(vs) {
			j = len(vs)
		}
		dst = timeseries.AppendChunk(dst, ts[i:j], vs[i:j])
	}
	return dst
}

// decodeChunkedInto decodes an encoded column into scratch and adds its
// values element-wise onto totals — the clean-router splice. The decoded
// bits are exactly the encoded bits (AppendChunk stores raw Float64bits),
// so the addition contributes the same sequence a live shard would.
func decodeChunkedInto(totals []float64, data []byte, scratch *timeseries.Series) error {
	scratch.Reset()
	for len(data) > 0 {
		rest, err := timeseries.DecodeChunk(scratch, data)
		if err != nil {
			return fmt.Errorf("ispnet: retained chunk: %w", err)
		}
		data = rest
	}
	if scratch.Len() != len(totals) {
		return fmt.Errorf("ispnet: retained chunk decoded %d points, want %d", scratch.Len(), len(totals))
	}
	for si := range totals {
		totals[si] += scratch.Value(si)
	}
	return nil
}

// replayChunked is the chunk-retained form of Fleet.replay: play the
// jobs through a bounded pipeline, fold their fresh columns into the step
// totals in fleet order, encode their retention into fresh buffers, and
// splice every other router in by decoding its retained chunks — never
// holding more than the worker window of live shards. Like replay it
// only stages: the retained chunks are not touched.
func (f *Fleet) replayChunked(jobs []replayJob, described []Event) (*stagedReplay, error) {
	n := f.net
	workers := f.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	window := workers + streamWindowSlack

	// Bounded pipeline over the jobs, exactly as RunStream admits the
	// whole fleet: slots preserves fleet order and its buffer is the
	// admission window.
	pool := sync.Pool{New: func() any { return &streamBufs{} }}
	slots := make(chan *streamSlot, window)
	work := make(chan *streamSlot)
	go func() {
		for _, j := range jobs {
			sh := n.newShard(j.router, nil, j.events, f.grid)
			bufs := pool.Get().(*streamBufs)
			sh.power = zeroedFloats(bufs.power, len(f.grid.nanos))
			sh.traffic = zeroedFloats(bufs.traffic, len(f.grid.nanos))
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

	// The consumer walks the whole fleet in order: replayed routers are
	// taken from the pipeline (which emits them in fleet order), the rest
	// are decoded from their retention. Either way the totals accumulate
	// router contributions in fleet order — the cold reduction's exact
	// floating-point sequence.
	steps := len(f.grid.nanos)
	totalPower := make([]float64, steps)
	totalTraffic := make([]float64, steps)
	scratch := timeseries.NewWithCap("chunk-splice", steps)
	staged := make([]routerChunks, len(jobs))
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	k := 0
	for i := range n.Routers {
		if k == len(jobs) || jobs[k].idx != i {
			metricShardsReused.Inc()
			metricFleetChunkSplices.Inc()
			if firstErr == nil {
				rc := &f.chunks[i]
				if err := decodeChunkedInto(totalPower, rc.power, scratch); err != nil {
					fail(err)
				} else if err := decodeChunkedInto(totalTraffic, rc.traffic, scratch); err != nil {
					fail(err)
				}
			}
			continue
		}
		s, ok := <-slots
		if !ok {
			return nil, fmt.Errorf("ispnet: chunk replay pipeline ended before router %q", jobs[k].router.Name)
		}
		<-s.done
		sh := s.sh
		if sh.router != jobs[k].router {
			fail(fmt.Errorf("ispnet: chunk replay order: got %q, want %q", sh.router.Name, jobs[k].router.Name))
		}
		if sh.err != nil {
			fail(sh.err)
		}
		if firstErr == nil {
			for si := range totalPower {
				totalPower[si] += sh.power[si]
				totalTraffic[si] += sh.traffic[si]
			}
			rc := &staged[k]
			rc.power = appendChunked(nil, f.grid.nanos, sh.power)
			rc.traffic = appendChunked(nil, f.grid.nanos, sh.traffic)
			rc.wall = sh.stats
			rc.psus = sh.psus
		}
		// Recycle the step buffers (wall may have grown under append).
		s.bufs.power, s.bufs.traffic, s.bufs.wall = sh.power, sh.traffic, sh.wall
		sh.power, sh.traffic, sh.wall = nil, nil, nil
		pool.Put(s.bufs)
		k++
	}
	wg.Wait()
	metricShardsReplayed.Add(uint64(len(jobs)))
	if firstErr != nil {
		return nil, firstErr
	}

	ds := newDataset(n, steps, f.capacity, described)
	ds.TotalPower.AppendBlock(f.grid.nanos, totalPower)
	ds.TotalTraffic.AppendBlock(f.grid.nanos, totalTraffic)
	k = 0
	for i, r := range n.Routers {
		var rc *routerChunks
		if k < len(jobs) && jobs[k].idx == i {
			rc = &staged[k]
			k++
		} else {
			rc = &f.chunks[i]
		}
		ds.addRouter(r, rc.wall, rc.psus)
	}
	return &stagedReplay{ds: ds, chunks: staged}, nil
}
