package hough

import (
	"testing"

	"mawilab/internal/detectors"
	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

func scanTrace(t *testing.T, seed int64) (*mawigen.Result, trace.IPv4) {
	t.Helper()
	cfg := mawigen.DefaultConfig(seed)
	cfg.BackgroundRate = 250
	cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindPortScan, Start: 10, Duration: 25, Rate: 120}}
	res := mawigen.Generate(cfg)
	return res, *res.Truth[0].Filters[0].Src
}

func TestDetectFindsScanLine(t *testing.T) {
	// A steady port scan draws a line in the (time, src-bucket) plane:
	// the scanner's bucket is lit for 25 consecutive seconds.
	res, scanner := scanTrace(t, 301)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Optimal))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("no alarms on a strong scan")
	}
	found := false
	for _, a := range alarms {
		for _, f := range a.Filters {
			if f.Src != nil && *f.Src == scanner {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("scanner %v not in any of %d alarms", scanner, len(alarms))
	}
}

func TestDetectFloodLine(t *testing.T) {
	cfg := mawigen.DefaultConfig(303)
	cfg.BackgroundRate = 250
	cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindICMPFlood, Start: 15, Duration: 20, Rate: 200}}
	res := mawigen.Generate(cfg)
	victim := *res.Truth[0].Filters[0].Dst
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Optimal))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alarms {
		for _, f := range a.Filters {
			if f.Dst != nil && *f.Dst == victim {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("flood victim %v not reported among %d alarms", victim, len(alarms))
	}
}

func TestAlarmsAreFlowAggregates(t *testing.T) {
	res, _ := scanTrace(t, 305)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Optimal))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alarms {
		if len(a.Filters) == 0 {
			t.Fatal("alarm with no flow filters")
		}
		if len(a.Filters) > maxFilters {
			t.Fatalf("alarm with %d filters exceeds cap %d", len(a.Filters), maxFilters)
		}
		for _, f := range a.Filters {
			// Aggregated-flow filters pin the plane host and the interval.
			if (f.Src == nil && f.Dst == nil) || !f.TimeBounded() {
				t.Fatalf("filter not a time-bounded host aggregate: %v", f)
			}
		}
	}
}

func TestSensitivityOrdering(t *testing.T) {
	res, _ := scanTrace(t, 307)
	d := New()
	sens, _ := d.Detect(trace.NewIndex(res.Trace), int(detectors.Sensitive))
	cons, _ := d.Detect(trace.NewIndex(res.Trace), int(detectors.Conservative))
	if len(sens) < len(cons) {
		t.Errorf("sensitive (%d) < conservative (%d)", len(sens), len(cons))
	}
}

func TestQuietBackground(t *testing.T) {
	cfg := mawigen.DefaultConfig(309)
	cfg.BackgroundRate = 250
	res := mawigen.Generate(cfg)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Conservative))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) > 6 {
		t.Errorf("conservative background alarms = %d", len(alarms))
	}
}

func TestShortEmptyAndConfig(t *testing.T) {
	d := New()
	if alarms, err := d.Detect(trace.NewIndex(&trace.Trace{}), 0); err != nil || len(alarms) != 0 {
		t.Error("empty trace should be silent")
	}
	if _, err := d.Detect(trace.NewIndex(&trace.Trace{}), 9); err == nil {
		t.Error("bad config accepted")
	}
	if d.Name() != "hough" || d.NumConfigs() != 3 {
		t.Error("identity wrong")
	}
}

func TestDeterministic(t *testing.T) {
	res, _ := scanTrace(t, 311)
	d := New()
	a, _ := d.Detect(trace.NewIndex(res.Trace), 0)
	b, _ := d.Detect(trace.NewIndex(res.Trace), 0)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("nondeterministic alarms")
		}
	}
}

// accumulatorOf builds an accumulator from per-angle rows, angle a's first
// bin being ρ bin lo[a].
func accumulatorOf(lo []int, rows ...[]int32) *accumulator {
	acc := &accumulator{lo: lo, off: make([]int, len(rows)+1)}
	for a, r := range rows {
		acc.votes = append(acc.votes, r...)
		acc.off[a+1] = len(acc.votes)
	}
	return acc
}

func TestIsLocalMax(t *testing.T) {
	acc := accumulatorOf([]int{0, 0, 0},
		[]int32{1, 2, 3, 2, 1},
		[]int32{1, 2, 9, 2, 1},
		[]int32{1, 2, 3, 2, 1},
	)
	if !isLocalMax(acc, 1, 2, 9) {
		t.Error("peak should be local max")
	}
	if isLocalMax(acc, 0, 2, 3) {
		t.Error("shoulder should not be local max")
	}
	// Ties resolve toward the smaller index.
	tie := accumulatorOf([]int{0}, []int32{5, 5})
	if !isLocalMax(tie, 0, 0, 5) {
		t.Error("first of tie should win")
	}
	if isLocalMax(tie, 0, 1, 5) {
		t.Error("second of tie should lose")
	}
	// Rows keep only their reachable bins, angle 0 bin 10 and angle 1 bins
	// 12–13: a neighbour outside a row reads as 0, one inside a shifted row
	// is read at its own ρ.
	ragged := accumulatorOf([]int{10, 12}, []int32{7}, []int32{3, 7})
	if !isLocalMax(ragged, 0, 10, 7) || !isLocalMax(ragged, 1, 13, 7) {
		t.Error("(0, 10) and (1, 13) lie 3 ρ bins apart: both should be local maxima")
	}
	if isLocalMax(ragged, 1, 12, 3) {
		t.Error("(1, 12) lies beside (0, 10) and should not be a local max")
	}
}
