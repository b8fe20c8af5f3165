// Package units provides the physical quantities used throughout the
// fantasticjoules library: electrical power, energy, data rates, packet
// rates, and data sizes.
//
// All quantities are represented as float64 wrappers with explicit base
// units (watts, joules, bits per second, packets per second, bytes). The
// wrappers exist to make APIs self-documenting and to prevent the classic
// unit mixups (bits vs bytes, W vs mW) that plague power tooling.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Power is an electrical power in watts.
type Power float64

// Common power scales.
const (
	Microwatt Power = 1e-6
	Milliwatt Power = 1e-3
	Watt      Power = 1
	Kilowatt  Power = 1e3
	Megawatt  Power = 1e6
)

// Watts returns the power as a plain float64 number of watts.
func (p Power) Watts() float64 { return float64(p) }

// Kilowatts returns the power in kilowatts.
func (p Power) Kilowatts() float64 { return float64(p) / 1e3 }

// String formats the power with an SI prefix, e.g. "358 W" or "21.5 kW".
func (p Power) String() string {
	return siFormat(float64(p), "W")
}

// Energy is an amount of energy in joules.
type Energy float64

// Common energy scales.
const (
	Picojoule    Energy = 1e-12
	Nanojoule    Energy = 1e-9
	Microjoule   Energy = 1e-6
	Joule        Energy = 1
	KilowattHour Energy = 3.6e6
)

// Joules returns the energy as a plain float64 number of joules.
func (e Energy) Joules() float64 { return float64(e) }

// Picojoules returns the energy in picojoules, the natural scale for
// per-bit forwarding costs.
func (e Energy) Picojoules() float64 { return float64(e) / 1e-12 }

// Nanojoules returns the energy in nanojoules, the natural scale for
// per-packet processing costs.
func (e Energy) Nanojoules() float64 { return float64(e) / 1e-9 }

// String formats the energy with an SI prefix, e.g. "22 pJ" or "58 nJ".
func (e Energy) String() string {
	return siFormat(float64(e), "J")
}

// BitRate is a data rate in bits per second. It is used both for interface
// line rates (100 Gb/s) and for measured traffic volumes.
type BitRate float64

// Common bit-rate scales.
const (
	BitPerSecond     BitRate = 1
	KilobitPerSecond BitRate = 1e3
	MegabitPerSecond BitRate = 1e6
	GigabitPerSecond BitRate = 1e9
	TerabitPerSecond BitRate = 1e12
)

// BitsPerSecond returns the rate as a plain float64.
func (r BitRate) BitsPerSecond() float64 { return float64(r) }

// Gbps returns the rate in gigabits per second.
func (r BitRate) Gbps() float64 { return float64(r) / 1e9 }

// String formats the rate with an SI prefix, e.g. "100 Gbps".
func (r BitRate) String() string {
	return siFormat(float64(r), "bps")
}

// PacketRate is a packet rate in packets per second.
type PacketRate float64

// PacketsPerSecond returns the rate as a plain float64.
func (r PacketRate) PacketsPerSecond() float64 { return float64(r) }

// String formats the packet rate, e.g. "8.13 Mpps".
func (r PacketRate) String() string {
	return siFormat(float64(r), "pps")
}

// ByteSize is a data size in bytes; used for packet and header sizes.
type ByteSize float64

// Bytes returns the size as a plain float64 number of bytes.
func (s ByteSize) Bytes() float64 { return float64(s) }

// String formats the size, e.g. "1500 B".
func (s ByteSize) String() string {
	return strconv.FormatFloat(float64(s), 'g', -1, 64) + " B"
}

// PacketRateFor converts a bidirectional bit rate into the packet rate it
// implies for fixed-size packets, following Eq. (12) of the paper:
//
//	p = r / (8 * (L + Lheader))
//
// where L is the layer-2 payload size and header the framing overhead, both
// in bytes. It returns 0 when the packet size is non-positive.
func PacketRateFor(r BitRate, packet, header ByteSize) PacketRate {
	denom := 8 * (packet.Bytes() + header.Bytes())
	if denom <= 0 {
		return 0
	}
	return PacketRate(r.BitsPerSecond() / denom)
}

// BitRateFor is the inverse of PacketRateFor: the bit rate on the wire for a
// given packet rate and fixed packet size.
func BitRateFor(p PacketRate, packet, header ByteSize) BitRate {
	return BitRate(p.PacketsPerSecond() * 8 * (packet.Bytes() + header.Bytes()))
}

// siFormat renders v with an SI prefix and three significant digits.
func siFormat(v float64, unit string) string {
	if v == 0 {
		return "0 " + unit
	}
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	type scale struct {
		factor float64
		prefix string
	}
	scales := []scale{
		{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "µ"}, {1e-9, "n"}, {1e-12, "p"},
	}
	for _, s := range scales {
		if v >= s.factor {
			return fmt.Sprintf("%s%s %s%s", neg, trimFloat(v/s.factor), s.prefix, unit)
		}
	}
	return fmt.Sprintf("%s%s %s", neg, trimFloat(v/1e-12), "p"+unit)
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// ParsePower parses strings such as "600 W", "1.1kW", or "358" (watts
// assumed). It accepts an optional SI prefix on the W unit.
func ParsePower(s string) (Power, error) {
	v, err := parseSI(s, "W")
	if err != nil {
		return 0, fmt.Errorf("parse power %q: %w", s, err)
	}
	return Power(v), nil
}

// ParseBitRate parses strings such as "100G", "100 Gbps", "10Gb/s", or
// "2500000000" (bits per second assumed).
func ParseBitRate(s string) (BitRate, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimSuffix(t, "/s")
	t = strings.TrimSuffix(t, "ps")
	t = strings.TrimSuffix(t, "b")
	t = strings.TrimSuffix(t, "B") // tolerate sloppy "GB" meaning Gb in datasheets
	v, err := parseSI(t, "")
	if err != nil {
		return 0, fmt.Errorf("parse bit rate %q: %w", s, err)
	}
	return BitRate(v), nil
}

// parseSI parses "<number><optional space><optional SI prefix><unit>".
func parseSI(s, unit string) (float64, error) {
	t := strings.TrimSpace(s)
	if unit != "" {
		t = strings.TrimSuffix(t, unit)
	}
	t = strings.TrimSpace(t)
	mult := 1.0
	if r, size := utf8.DecodeLastRuneInString(t); size > 0 {
		switch r {
		case 'p':
			mult = 1e-12
		case 'n':
			mult = 1e-9
		case 'u', 'µ', 'μ': // ASCII u, the micro sign String prints, Greek mu
			mult = 1e-6
		case 'm':
			mult = 1e-3
		case 'k', 'K':
			mult = 1e3
		case 'M':
			mult = 1e6
		case 'G':
			mult = 1e9
		case 'T':
			mult = 1e12
		}
		if mult != 1.0 {
			t = strings.TrimSpace(t[:len(t)-size])
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, err
	}
	return v * mult, nil
}

// NearlyEqual reports whether two float64 values are equal within a relative
// tolerance tol (and an absolute tolerance of tol for values near zero). It
// is the comparison helper used by tests throughout the library.
func NearlyEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if math.Abs(a) < tol && math.Abs(b) < tol {
		return diff < tol
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}
