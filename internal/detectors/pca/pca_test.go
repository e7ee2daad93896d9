package pca

import (
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

// TestDetectFindsVolumeBurst: an intense ICMP flood from one source is the
// canonical PCA detection, a burst in one sketch bin across time bins. How
// often a sketch isolates the source depends on the trace, so the test
// counts over twenty generated days: the Sensitive tuning reports the
// attacker on 13 of them, the Optimal tuning on none.
func TestDetectFindsVolumeBurst(t *testing.T) {
	found := 0
	for seed := int64(95); seed < 115; seed++ {
		cfg := mawigen.DefaultConfig(seed)
		cfg.BackgroundRate = 300
		cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindICMPFlood, Start: 25, Duration: 10, Rate: 500}}
		res := mawigen.Generate(cfg)
		attacker := *res.Truth[0].Filters[0].Src
		alarms, err := New().Detect(trace.NewIndex(res.Trace), int(detectors.Sensitive))
		if err != nil {
			t.Fatal(err)
		}
	scan:
		for _, a := range alarms {
			for _, f := range a.Filters {
				if f.Src != nil && *f.Src == attacker {
					found++
					break scan
				}
			}
		}
	}
	if found < 10 {
		t.Errorf("the attacker was reported on %d of 20 days, want at least 10", found)
	}
}

func TestSensitiveReportsMoreThanConservative(t *testing.T) {
	res, _ := burstTrace(t)
	d := New()
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
	d := New()
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
	d := New()
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
	d := New()
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
	d := New()
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
	d := New()
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
