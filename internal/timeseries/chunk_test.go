package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// chunkColumns builds an n-point test trace: a regular 5-minute grid with
// occasional jitter, full-range float64 values.
func chunkColumns(n int, seed int64) ([]int64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]int64, n)
	vs := make([]float64, n)
	base := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i := range ts {
		ts[i] = base + int64(i)*int64(5*time.Minute)
		if rng.Intn(10) == 0 {
			ts[i] += rng.Int63n(int64(time.Second))
		}
		vs[i] = rng.NormFloat64() * 1e4
	}
	return ts, vs
}

// TestChunkRoundTrip checks a chunk stream round-trips bit-exactly,
// including irregular grids, negative timestamps, and empty chunks.
func TestChunkRoundTrip(t *testing.T) {
	ts, vs := chunkColumns(1000, 7)
	ts[3] = -42 // pre-1970 is legal
	vs[5] = math.Inf(-1)
	vs[6] = math.NaN()

	// Encode in uneven chunks into one buffer.
	var buf []byte
	for _, cut := range [][2]int{{0, 1}, {1, 1}, {1, 400}, {400, 1000}} {
		buf = AppendChunk(buf, ts[cut[0]:cut[1]], vs[cut[0]:cut[1]])
	}

	got := New("decoded")
	rest := buf
	var err error
	for len(rest) > 0 {
		if rest, err = DecodeChunk(got, rest); err != nil {
			t.Fatal(err)
		}
	}
	if got.Len() != len(ts) {
		t.Fatalf("decoded %d points, want %d", got.Len(), len(ts))
	}
	for i := range ts {
		// Compare raw columns (NanoAt would sort; the jittered grid is
		// still ascending here except the injected negative point).
		if got.ts[i] != ts[i] {
			t.Fatalf("point %d timestamp %d, want %d", i, got.ts[i], ts[i])
		}
		if math.Float64bits(got.vs[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("point %d value bits %#x, want %#x", i, math.Float64bits(got.vs[i]), math.Float64bits(vs[i]))
		}
	}
}

// TestDecodeChunkCorrupt checks corrupt inputs fail cleanly and leave the
// destination untouched.
func TestDecodeChunkCorrupt(t *testing.T) {
	ts, vs := chunkColumns(64, 3)
	good := AppendChunk(nil, ts, vs)

	dst := New("dst")
	dst.Append(time.Unix(0, 0), 1)
	for name, data := range map[string][]byte{
		"empty":            {},
		"huge count":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"truncated mid-ts": good[:2],
		"truncated values": good[:len(good)-9],
	} {
		if _, err := DecodeChunk(dst, data); err == nil {
			t.Errorf("%s: want error", name)
		}
		if dst.Len() != 1 {
			t.Fatalf("%s: corrupt decode mutated dst to %d points", name, dst.Len())
		}
	}
}

// TestDecodeChunkZeroAlloc pins the steady-state decode loop at zero
// allocations: a Reset destination with enough capacity refills from a
// chunk without touching the allocator.
func TestDecodeChunkZeroAlloc(t *testing.T) {
	ts, vs := chunkColumns(1024, 9)
	buf := AppendChunk(nil, ts, vs)
	dst := NewWithCap("scratch", len(ts))
	allocs := testing.AllocsPerRun(100, func() {
		dst.Reset()
		if _, err := DecodeChunk(dst, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeChunk allocates %v times per run, want 0", allocs)
	}
}

// TestAppendBlockAndBlocks checks the zero-copy block iteration hands
// over every point, in order, so appending the blocks rebuilds an exact
// copy.
func TestAppendBlockAndBlocks(t *testing.T) {
	ts, vs := chunkColumns(777, 11)
	src := FromColumns("src", ts, vs)
	if src.Len() != len(ts) {
		t.Fatalf("FromColumns len %d, want %d", src.Len(), len(ts))
	}

	dst := New("dst")
	if err := src.Blocks(100, func(bts []int64, bvs []float64) error {
		for i, ns := range bts {
			dst.Append(time.Unix(0, ns), bvs[i])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("blocks copied %d points, want %d", dst.Len(), src.Len())
	}
	for i := 0; i < src.Len(); i++ {
		if src.NanoAt(i) != dst.NanoAt(i) || math.Float64bits(src.Value(i)) != math.Float64bits(dst.Value(i)) {
			t.Fatalf("point %d differs after the Blocks round trip", i)
		}
	}

	// Blocks with size ≤ 0 must hand over everything at once.
	calls := 0
	if err := src.Blocks(0, func(bts []int64, _ []float64) error {
		calls++
		if len(bts) != src.Len() {
			t.Fatalf("size<=0 block has %d points, want %d", len(bts), src.Len())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("size<=0 made %d calls, want 1", calls)
	}
}

// BenchmarkChunkDecode measures the steady-state spill-reader loop: one
// Reset + DecodeChunk of a 1024-point chunk into a reused series.
func BenchmarkChunkDecode(b *testing.B) {
	ts, vs := chunkColumns(1024, 1)
	buf := AppendChunk(nil, ts, vs)
	dst := NewWithCap("scratch", len(ts))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		if _, err := DecodeChunk(dst, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunkEncode measures AppendChunk into a reused buffer.
func BenchmarkChunkEncode(b *testing.B) {
	ts, vs := chunkColumns(1024, 2)
	buf := AppendChunk(nil, ts, vs)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendChunk(buf[:0], ts, vs)
	}
}
