package gammafit

import (
	"reflect"
	"testing"

	"mawilab/internal/detectors"
	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

func floodTrace(t *testing.T, seed int64) (*mawigen.Result, trace.IPv4, trace.IPv4) {
	t.Helper()
	cfg := mawigen.DefaultConfig(seed)
	cfg.BackgroundRate = 300
	cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindICMPFlood, Start: 20, Duration: 15, Rate: 400}}
	res := mawigen.Generate(cfg)
	ev := res.Truth[0]
	return res, *ev.Filters[0].Src, *ev.Filters[0].Dst
}

func TestDetectFindsFloodEndpoints(t *testing.T) {
	res, attacker, victim := floodTrace(t, 201)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Optimal))
	if err != nil {
		t.Fatal(err)
	}
	var srcHit, dstHit bool
	for _, a := range alarms {
		for _, f := range a.Filters {
			if f.Src != nil && *f.Src == attacker {
				srcHit = true
			}
			if f.Dst != nil && *f.Dst == victim {
				dstHit = true
			}
		}
	}
	if !srcHit && !dstHit {
		t.Errorf("flood endpoints not reported (attacker %v, victim %v) among %d alarms", attacker, victim, len(alarms))
	}
}

func TestBothDirectionsAnalyzed(t *testing.T) {
	res, _, _ := floodTrace(t, 203)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Sensitive))
	if err != nil {
		t.Fatal(err)
	}
	var hasSrc, hasDst bool
	for _, a := range alarms {
		for _, f := range a.Filters {
			if f.Src != nil {
				hasSrc = true
			}
			if f.Dst != nil {
				hasDst = true
			}
		}
	}
	if !hasSrc || !hasDst {
		t.Errorf("expected alarms from both sketch directions: src=%v dst=%v", hasSrc, hasDst)
	}
}

func TestSensitivityOrdering(t *testing.T) {
	res, _, _ := floodTrace(t, 205)
	d := New()
	sens, _ := d.Detect(trace.NewIndex(res.Trace), int(detectors.Sensitive))
	cons, _ := d.Detect(trace.NewIndex(res.Trace), int(detectors.Conservative))
	if len(sens) < len(cons) {
		t.Errorf("sensitive (%d) < conservative (%d)", len(sens), len(cons))
	}
}

func TestQuietBackground(t *testing.T) {
	cfg := mawigen.DefaultConfig(207)
	cfg.BackgroundRate = 300
	res := mawigen.Generate(cfg)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Conservative))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) > 10 {
		t.Errorf("conservative background alarms = %d", len(alarms))
	}
}

func TestShortAndEmptyTraces(t *testing.T) {
	d := New()
	if alarms, err := d.Detect(trace.NewIndex(&trace.Trace{}), 0); err != nil || len(alarms) != 0 {
		t.Error("empty trace should be silent")
	}
	short := &trace.Trace{}
	short.Append(trace.Packet{TS: 1e6, Proto: trace.TCP})
	if alarms, _ := d.Detect(trace.NewIndex(short), 0); len(alarms) != 0 {
		t.Error("too-short trace should be silent")
	}
}

func TestConfigValidationAndIdentity(t *testing.T) {
	d := New()
	if _, err := d.Detect(trace.NewIndex(&trace.Trace{}), 3); err == nil {
		t.Error("bad config accepted")
	}
	if d.Name() != "gamma" || d.NumConfigs() != 3 {
		t.Error("identity wrong")
	}
}

func TestAggregate(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5}
	buf := []float64{9, 9, 9, 9, 9} // stale contents must not leak into the sums
	out := aggregate(buf, in, 2)
	if len(out) != 3 || out[0] != 3 || out[1] != 7 || out[2] != 5 {
		t.Errorf("aggregate = %v", out)
	}
	if want := refAggregate(in, 2); !reflect.DeepEqual(out, want) {
		t.Errorf("aggregate = %v, reference %v", out, want)
	}
	// factor 1 is the cells themselves: no copy, nothing written.
	same := aggregate(buf, in, 1)
	if len(same) != 5 || &same[0] != &in[0] {
		t.Errorf("factor-1 aggregate = %v", same)
	}
}

func TestRobustScale(t *testing.T) {
	if robustScale(2, 5) != 2 {
		t.Error("positive MAD should pass through")
	}
	if robustScale(0, 10) != 1 {
		t.Error("zero MAD should fall back to 10% of ref")
	}
	if robustScale(0, 0) != 1 {
		t.Error("all-zero should fall back to 1")
	}
}

func TestDeterministic(t *testing.T) {
	res, _, _ := floodTrace(t, 209)
	d := New()
	a, _ := d.Detect(trace.NewIndex(res.Trace), 1)
	b, _ := d.Detect(trace.NewIndex(res.Trace), 1)
	if len(a) != len(b) {
		t.Fatal("nondeterministic")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("nondeterministic alarm order")
		}
	}
}
