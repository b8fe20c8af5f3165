package ispnet

import (
	"fmt"

	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/telemetry"
	"fantasticjoules/internal/timeseries"
)

// Fleet retention: what a Fleet keeps of each router between
// Resimulates, and how the fold gets a clean router back. There are two
// forms, and the chunked flag, set at NewFleet, selects one for the
// fleet's lifetime; retain and restore below are the only places that
// branch on it.
//
//   - Live shards (the calibrated 107-router build). Each router's played
//     shard is kept whole: its power and traffic columns, its replay plan
//     and its instrumented meter/SNMP/rate traces, which are part of the
//     dataset. Keeping raw columns makes a clean router's fold an add.
//   - Chunks (hierarchical fleets, which have no instrumented routers).
//     At 10k+ routers live shards would put the fleet-size × duration
//     product back on the heap, so each router keeps its power and traffic
//     columns as the same delta-of-delta columnar chunks a streamed run
//     spills (timeseries.AppendChunk), plus its wall stats and PSU
//     snapshot. Values keep their raw Float64bits, so a clean router
//     decodes back into exactly the columns it was played with.
//
// Either way the fold adds the clean router's columns in its fleet-order
// turn, the same additions a cold run makes.

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
// streamChunkPoints-sized chunks, appending to dst: the chunk sequence a
// streamed run spills, kept in one buffer.
func appendChunked(dst []byte, ts []int64, vs []float64) []byte {
	for i := 0; i < len(vs); i += streamChunkPoints {
		j := min(i+streamChunkPoints, len(vs))
		dst = timeseries.AppendChunk(dst, ts[i:j], vs[i:j])
	}
	return dst
}

// retain stages played job k's retention in st and reports whether it
// keeps the shard's step columns: a live shard keeps them, the chunk form
// encodes them and hands them back to the pipeline.
func (f *Fleet) retain(st *stagedReplay, k int, sh *routerShard) bool {
	if f.chunked {
		st.chunks[k] = routerChunks{
			power:   appendChunked(nil, f.grid.nanos, sh.power),
			traffic: appendChunked(nil, f.grid.nanos, sh.traffic),
			wall:    sh.stats,
			psus:    sh.psus,
		}
		return false
	}
	st.shards[k] = sh
	return true
}

// restore folds clean router i back in from its retention.
func (f *Fleet) restore(fo *fold, i int) error {
	if !f.chunked {
		sh := f.shards[i]
		addInto(fo.power, sh.power)
		addInto(fo.traffic, sh.traffic)
		fo.ds.addShard(sh)
		return nil
	}
	metricFleetChunkSplices.Inc()
	rc := &f.chunks[i]
	if err := f.splice(fo.power, rc.power); err != nil {
		return err
	}
	if err := f.splice(fo.traffic, rc.traffic); err != nil {
		return err
	}
	fo.ds.addRouter(f.net.Routers[i], rc.wall, rc.psus)
	return nil
}

// splice decodes one retained column into the fleet's scratch series and
// adds it into total.
func (f *Fleet) splice(total []float64, data []byte) error {
	s := f.scratch
	s.Reset()
	for len(data) > 0 {
		rest, err := timeseries.DecodeChunk(s, data)
		if err != nil {
			return fmt.Errorf("ispnet: retained chunk: %w", err)
		}
		data = rest
	}
	if s.Len() != len(total) {
		return fmt.Errorf("ispnet: retained chunk decoded %d points, want %d", s.Len(), len(total))
	}
	return s.Blocks(0, func(_ []int64, vs []float64) error {
		addInto(total, vs)
		return nil
	})
}
