package experiments

import (
	"fmt"
	"sort"

	"fantasticjoules/internal/datasheet"
	"fantasticjoules/internal/stats"
	"fantasticjoules/internal/units"
)

// Fig2a returns the ASIC efficiency trend of Fig. 2a (redrawn vendor
// data): the clean baseline the router-level trend is compared against.
func (s *Suite) Fig2a() []datasheet.EfficiencyPoint {
	return datasheet.ASICTrend()
}

// Fig2bResult is the datasheet-level efficiency trend of Fig. 2b.
type Fig2bResult struct {
	Points []datasheet.EfficiencyPoint
	// Fit is the linear trend over release years; the paper's observation
	// is its weakness: a shallow slope against a wide spread.
	Fit stats.LinearFit
	// CorpusSize and Plotted document the filtering (≥100 Gbps, outliers
	// removed).
	CorpusSize int
	Plotted    int
}

// Fig2b computes the router-level efficiency trend from the extracted
// datasheet corpus.
func (s *Suite) Fig2b() (Fig2bResult, error) {
	records := s.Records()
	pts, fit, err := datasheet.EfficiencyTrend(records, datasheet.DefaultTrendOptions())
	if err != nil {
		return Fig2bResult{}, fmt.Errorf("fig2b: %w", err)
	}
	return Fig2bResult{Points: pts, Fit: fit, CorpusSize: len(records), Plotted: len(pts)}, nil
}

// Table1 compares each fleet model's measured median power against its
// datasheet "typical" value, sorted by overestimation — the Table 1 rows.
func (s *Suite) Table1() ([]datasheet.AccuracyRow, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	// Median of the per-router medians for each hardware model, as the
	// paper's per-model row.
	perModel := map[string][]float64{}
	for name, med := range ds.RouterWallMedian {
		r, ok := ds.Network.RouterByName(name)
		if !ok {
			return nil, fmt.Errorf("table1: unknown router %s", name)
		}
		perModel[r.Model] = append(perModel[r.Model], med.Watts())
	}
	measured := map[string]units.Power{}
	for m, vals := range perModel {
		measured[m] = units.Power(stats.Median(vals))
	}
	rows := datasheet.CompareMeasured(measured, s.Records())
	// Keep only the eight models the paper lists (those with a stated
	// typical or max power); drop the rest for the table.
	table1Models := map[string]bool{
		"NCS-55A1-24H": true, "ASR-920-24SZ-M": true, "NCS-55A1-24Q6H-SS": true,
		"NCS-55A1-48Q6H": true, "ASR-9001": true, "N540-24Z8Q2C-M": true,
		"8201-32FH": true, "8201-24H8FH": true,
	}
	var out []datasheet.AccuracyRow
	for _, r := range rows {
		if table1Models[r.Model] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Overestimate > out[j].Overestimate })
	return out, nil
}
