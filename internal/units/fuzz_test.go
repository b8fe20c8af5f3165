package units

import (
	"math"
	"testing"
)

// roundTripTol is how far String → Parse may move a value: String prints
// three decimals of an SI mantissa that is at least 1 (so at most half a
// unit in the third decimal, 5e-4 relative), except below one pico-unit,
// where the mantissa is the value in pico-units and may round to 0 (so
// at most 0.0005 pico-units, 5e-16 absolute).
func roundTripTol(v float64) float64 {
	return math.Max(5e-4*math.Abs(v), 5e-16)
}

// checkRoundTrip asserts that a value parses back from its String form
// within roundTripTol.
func checkRoundTrip(t *testing.T, v float64, s string, parse func(string) (float64, error)) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	got, err := parse(s)
	if err != nil {
		t.Fatalf("%v prints as %q, which does not parse: %v", v, s, err)
	}
	if math.Abs(got-v) > roundTripTol(v) {
		t.Fatalf("%v prints as %q, which parses to %v (tolerance %g)", v, s, got, roundTripTol(v))
	}
}

// FuzzParsePower checks ParsePower on arbitrary text — it returns a
// value or an error, never panics — and the String → ParsePower round
// trip of every finite power, within roundTripTol.
func FuzzParsePower(f *testing.F) {
	for _, s := range []string{"600 W", "600W", "1.1kW", "358", "2.7 kW", "320 mW", "-24 W", "TBD", "", " W", "k", "1e308 TW"} {
		f.Add(s, 600.0)
	}
	f.Add("0 W", 0.0)
	f.Add("1.5 MW", 1.5e6)
	f.Add("12 nW", 1.2e-8)
	f.Add("0 pW", 3e-17)
	f.Fuzz(func(t *testing.T, s string, v float64) {
		if p, err := ParsePower(s); err == nil {
			checkRoundTrip(t, p.Watts(), p.String(), parsePowerW)
		}
		checkRoundTrip(t, v, Power(v).String(), parsePowerW)
	})
}

// FuzzParseBitRate is FuzzParsePower for ParseBitRate and BitRate's
// String form.
func FuzzParseBitRate(f *testing.F) {
	for _, s := range []string{"100G", "100 Gbps", "10Gb/s", "1.8 Tbps", "2400000000", "25 GB", "bps", "/s", "", "ps"} {
		f.Add(s, 100e9)
	}
	f.Add("0 bps", 0.0)
	f.Add("2.5 kbps", 2500.0)
	f.Add("3 mbps", 3e-3)
	f.Fuzz(func(t *testing.T, s string, v float64) {
		if r, err := ParseBitRate(s); err == nil {
			checkRoundTrip(t, r.BitsPerSecond(), r.String(), parseBitRateBPS)
		}
		checkRoundTrip(t, v, BitRate(v).String(), parseBitRateBPS)
	})
}

func parsePowerW(s string) (float64, error) {
	p, err := ParsePower(s)
	return p.Watts(), err
}

func parseBitRateBPS(s string) (float64, error) {
	r, err := ParseBitRate(s)
	return r.BitsPerSecond(), err
}
