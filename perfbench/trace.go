package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call.
type span struct {
	name   string
	parent int // index into tracer.spans; -1 for a root
	op     int // the op the span belongs to
	start  time.Duration
	end    time.Duration
	// Deltas over the span of the allocator counters and of the shard
	// replay seconds (play busy time); only spans opened with begin
	// take them, leaf spans leave them zero.
	allocBytes, allocObjects, busy float64
}

// tracer keeps spans in memory for the whole run and writes them out
// at the end. A nil *tracer is the untraced run: every method returns
// at once, so ops call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	pr    *prober
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), pr: newProber()}
}

// begin opens a span under parent and returns its id. It also reads the
// allocator counters, so it is meant for calls that take milliseconds.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, o := t.pr.allocs()
	t.spans = append(t.spans, span{
		name: name, parent: parent, op: op,
		allocBytes: b, allocObjects: o, busy: telReaders[telShardSeconds](),
		start: time.Since(t.epoch),
	})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	b, o := t.pr.allocs()
	sp := &t.spans[id]
	sp.end = now
	sp.allocBytes = b - sp.allocBytes
	sp.allocObjects = o - sp.allocObjects
	sp.busy = telReaders[telShardSeconds]() - sp.busy
}

// leaf records a finished span timed by the caller, for calls too short
// and too many to read the allocator around.
func (t *tracer) leaf(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, parent: parent, op: op,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch),
	})
}

// call runs f inside a span named name.
func call[T any](t *tracer, name string, parent, op int, f func() (T, error)) (T, error) {
	id := t.begin(name, parent, op)
	v, err := f()
	t.end(id)
	return v, err
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children are clipped to the parent and overlapping
// children count once, so the self times of a tree always sum to the
// root's duration.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(0), time.Duration(-1)
		for _, k := range kids {
			s, e := max(spans[k].start, sp.start), min(spans[k].end, sp.end)
			if e <= s {
				continue
			}
			if s > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = s, e
			} else if e > curEnd {
				curEnd = e
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[i] = sp.end - sp.start - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		f.Close()
		return err
	}
	enc := json.NewEncoder(w)
	for i, sp := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		args := map[string]any{"op": sp.op, "parent": sp.parent}
		if sp.allocBytes != 0 {
			args["alloc_bytes"] = sp.allocBytes
			args["alloc_objects"] = sp.allocObjects
		}
		if err := enc.Encode(event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Args: args,
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
