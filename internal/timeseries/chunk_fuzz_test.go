package timeseries

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
)

// seriesState is everything DecodeChunk may touch on its destination,
// copied so a later in-place write cannot alter the snapshot.
type seriesState struct {
	ts         []int64
	vs         []float64
	sorted     bool
	valsSorted []float64
	valsOK     bool
}

func stateOf(s *Series) seriesState {
	return seriesState{
		ts:         append([]int64(nil), s.ts...),
		vs:         append([]float64(nil), s.vs...),
		sorted:     s.sorted,
		valsSorted: append([]float64(nil), s.valsSorted...),
		valsOK:     s.valsOK,
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkRoundTrip encodes the columns as one chunk and requires the decode
// to consume it exactly and return every timestamp and value bit.
func checkRoundTrip(t *testing.T, ts []int64, vs []float64) {
	t.Helper()
	enc := AppendChunk(nil, ts, vs)
	got := New("round-trip")
	rest, err := DecodeChunk(got, enc)
	if err != nil {
		t.Fatalf("decoding an AppendChunk encoding of %d points: %v", len(ts), err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d of %d bytes", len(rest), len(enc))
	}
	if len(got.ts) != len(ts) || len(got.vs) != len(vs) {
		t.Fatalf("decoded %d/%d points, want %d", len(got.ts), len(got.vs), len(ts))
	}
	for i := range ts {
		if got.ts[i] != ts[i] || !sameBits(got.vs[i], vs[i]) {
			t.Fatalf("point %d: (%d, %#x), want (%d, %#x)", i,
				got.ts[i], math.Float64bits(got.vs[i]), ts[i], math.Float64bits(vs[i]))
		}
	}
}

// FuzzDecodeChunk covers the decoder every chunk-retained Fleet
// Resimulate runs over its retained bytes:
//
//   - arbitrary input never panics, and a successful decode reads nothing
//     past the chunk it reports (the same prefix alone decodes the same);
//   - on error the destination is exactly as it was, as DecodeChunk
//     documents;
//   - AppendChunk output round-trips bit for bit, both for the points an
//     arbitrary input decoded to and for columns drawn from the input.
func FuzzDecodeChunk(f *testing.F) {
	for _, n := range []int{0, 1, 2, 17, 300} {
		ts, vs := chunkColumns(n, int64(n))
		enc := AppendChunk(nil, ts, vs)
		f.Add(enc)
		f.Add(append(enc[:len(enc):len(enc)], enc...)) // two chunks back to back
		if len(enc) > 1 {
			f.Add(enc[:len(enc)-1]) // torn write
			flipped := append([]byte(nil), enc...)
			flipped[len(flipped)/2] ^= 0xff
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // 2^64-1 points
	f.Add([]byte{0x02, 0x80})                                                 // unterminated timestamp varint
	f.Fuzz(func(t *testing.T, data []byte) {
		// A non-empty, sorted destination ending at the largest timestamp:
		// any decoded point is out of order, so a failed decode has both a
		// length and a sortedness flag to restore.
		dst := New("fuzz")
		dst.appendNano(math.MaxInt64, 1)
		base := dst.Len()
		before := stateOf(dst)
		rest, err := DecodeChunk(dst, data)
		if err != nil {
			if after := stateOf(dst); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed decode (%v) changed its destination: %+v, was %+v", err, after, before)
			}
		} else {
			if len(rest) > len(data) || !bytes.Equal(rest, data[len(data)-len(rest):]) {
				t.Fatalf("rest is not a suffix of the input")
			}
			chunk := data[: len(data)-len(rest) : len(data)-len(rest)]
			alone := New("alone")
			if r, err := DecodeChunk(alone, chunk); err != nil || len(r) != 0 {
				t.Fatalf("the consumed prefix alone does not decode cleanly: err=%v, %d bytes left", err, len(r))
			}
			if !slices.Equal(alone.ts, dst.ts[base:]) || !slices.EqualFunc(alone.vs, dst.vs[base:], sameBits) {
				t.Fatalf("decode read past its chunk: prefix alone gives different points")
			}
			checkRoundTrip(t, dst.ts[base:], dst.vs[base:])
		}

		n := len(data) / 16
		ts := make([]int64, n)
		vs := make([]float64, n)
		for i := range ts {
			ts[i] = int64(binary.LittleEndian.Uint64(data[16*i:]))
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		checkRoundTrip(t, ts, vs)
	})
}
