package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"time"

	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/timeseries"
)

// digest hashes a result value at full precision: every float by its
// bits, every series point by point, maps in sorted key order. Two
// results digest equal exactly when every simulated statistic in them
// is bit-identical, which is the output check for repeated ops.
func digest(vs ...any) (string, error) {
	h := fnv.New64a()
	for _, v := range vs {
		if err := digestValue(h, reflect.ValueOf(v), 0); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// datasetDigest digests a dataset without its Network, whose device
// state is simulator internals rather than output.
func datasetDigest(ds *ispnet.Dataset) (string, error) {
	d := *ds
	d.Network = nil
	return digest(&d)
}

var (
	seriesType = reflect.TypeOf((*timeseries.Series)(nil))
	timeType   = reflect.TypeOf(time.Time{})
)

func digestValue(h hash.Hash64, v reflect.Value, depth int) error {
	if depth > 32 {
		return fmt.Errorf("digest: value nests deeper than 32 levels")
	}
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	if !v.IsValid() {
		u64(0)
		return nil
	}
	switch v.Type() {
	case seriesType:
		// A series caches sorted copies of itself; hash the points only.
		if v.IsNil() {
			u64(0)
			return nil
		}
		for _, name := range [...]string{"Name", "ts", "vs"} {
			f := v.Elem().FieldByName(name)
			if !f.IsValid() {
				return fmt.Errorf("digest: timeseries.Series has no field %q", name)
			}
			if err := digestValue(h, f, depth+1); err != nil {
				return err
			}
		}
		return nil
	case timeType:
		if !v.CanInterface() {
			return fmt.Errorf("digest: unexported time.Time field")
		}
		u64(uint64(v.Interface().(time.Time).UnixNano()))
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			u64(1)
		} else {
			u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		u64(math.Float64bits(v.Float()))
	case reflect.String:
		str(v.String())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			u64(0)
			return nil
		}
		u64(1)
		return digestValue(h, v.Elem(), depth+1)
	case reflect.Slice, reflect.Array:
		u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := digestValue(h, v.Index(i), depth+1); err != nil {
				return err
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		if v.Type().Key().Kind() != reflect.String {
			return fmt.Errorf("digest: map key type %s is not a string", v.Type().Key())
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		u64(uint64(len(keys)))
		for _, k := range keys {
			str(k.String())
			if err := digestValue(h, v.MapIndex(k), depth+1); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := digestValue(h, v.Field(i), depth+1); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("digest: cannot digest a %s", v.Type())
	}
	return nil
}
