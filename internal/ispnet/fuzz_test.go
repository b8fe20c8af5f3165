package ispnet

import (
	"reflect"
	"testing"
	"time"
)

// fuzzOps are the ops FuzzFleetPerturb draws from: every declarative op,
// strict and best-effort alike.
var fuzzOps = []FleetOp{
	OpAdminDown, OpAdminUp, OpLinkDown, OpLinkUp, OpUnplug, OpAddInterfaces,
	OpPowerCycle, OpScaleLoad, OpSleep, OpWake, OpPSUOffline, OpPSUOnline,
}

// fuzzFleet decodes a fuzz input into a fleet config and a sequence of
// event batches. The first byte picks the fleet: even selects the
// calibrated 107-router build over 6–24 hours, odd an 8–64-router
// hierarchical fleet over 12 hours. The second byte is the seed. Every
// further 4 bytes are one event — op (the high bit closes the batch
// after it), router, operand, due step — resolved against the pristine
// build. An operand may name no interface ("eth9999") or a PSU or port
// count the router lacks, so some batches fail at apply.
func fuzzFleet(data []byte) (Config, [][]FleetEvent, bool) {
	if len(data) < 2 {
		return Config{}, nil, false
	}
	cfg := Config{Seed: int64(data[1]), SNMPStep: time.Hour, AutopowerStep: 30 * time.Minute}
	if data[0]&1 == 0 {
		cfg.Duration = time.Duration(6*(1+int(data[0]>>1)%4)) * time.Hour
	} else {
		cfg = hierFleetCfg(8+int(data[0]>>1)%57, 0, 12*time.Hour, time.Hour)
		cfg.Seed = int64(data[1])
	}
	n, err := Build(cfg)
	if err != nil {
		return Config{}, nil, false
	}
	steps := int(n.Config.Duration / n.Config.SNMPStep)
	var batches [][]FleetEvent
	var batch []FleetEvent
	const maxEvents = 16
	for i, b := 2, 0; i+4 <= len(data) && b < maxEvents; i, b = i+4, b+1 {
		op, r := fuzzOps[int(data[i]&0x7f)%len(fuzzOps)], n.Routers[int(data[i+1])%len(n.Routers)]
		arg := int(data[i+2])
		e := FleetEvent{
			At:     n.Config.Start.Add(time.Duration(int(data[i+3])%(steps+1)) * n.Config.SNMPStep),
			Router: r.Name,
			Op:     op,
		}
		switch op {
		case OpAddInterfaces:
			e.Count = 1 + arg%3
		case OpPowerCycle, OpPSUOffline, OpPSUOnline:
			e.PSU = arg % 3
		case OpScaleLoad:
			e.Factor = 0.25 * float64(1+arg%16)
		default:
			e.Iface = "eth9999"
			if k := arg % (len(r.Interfaces) + 1); k < len(r.Interfaces) {
				e.Iface = r.Interfaces[k].Name
			}
		}
		batch = append(batch, e)
		if data[i]&0x80 != 0 {
			batches = append(batches, batch)
			batch = nil
		}
	}
	if batch != nil {
		batches = append(batches, batch)
	}
	return cfg, batches, true
}

// FuzzFleetPerturb is the differential guard of the bit-identity
// contract: for a fuzzed fleet and event batches, at Workers 1 and 3,
// Perturb+Resimulate, a cold SimulateWithEvents and a streamed run over
// the committed events must yield DiffDatasets-identical datasets, and a
// batch that fails at apply must leave the fleet's dataset and schedule
// as they were.
func FuzzFleetPerturb(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, batches, ok := fuzzFleet(data)
		if !ok {
			t.Skip("undecodable fleet")
		}
		var first *Dataset
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			fl, err := NewFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				prevDS, prevEvents, prevExtra := fl.Dataset(), fl.Events(), fl.ExtraEvents()
				if err := fl.Perturb(b...); err != nil {
					t.Fatalf("decoded batch fails validation: %v", err)
				}
				if _, err := fl.Resimulate(); err != nil {
					if fl.Dataset() != prevDS {
						t.Fatalf("failed batch replaced the dataset: %v", err)
					}
					if !reflect.DeepEqual(fl.Events(), prevEvents) || !reflect.DeepEqual(fl.ExtraEvents(), prevExtra) {
						t.Fatalf("failed batch left its events in the schedule: %v", err)
					}
				}
			}
			extra := fl.ExtraEvents()
			cold, err := SimulateWithEvents(cfg, extra)
			if err != nil {
				t.Fatalf("cold run over the committed events: %v", err)
			}
			datasetsIdentical(t, cold, fl.Dataset())
			n, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := n.run(extra, &DiscardSink{})
			if err != nil {
				t.Fatalf("streamed run over the committed events: %v", err)
			}
			datasetsIdentical(t, cold, streamed)
			if first == nil {
				first = cold
			} else {
				datasetsIdentical(t, first, cold)
			}
		}
	})
}
