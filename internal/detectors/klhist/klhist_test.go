package klhist

import (
	"strings"
	"testing"

	"mawilab/internal/detectors"
	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

func onsetTrace(t *testing.T, seed int64) (*mawigen.Result, trace.IPv4) {
	t.Helper()
	cfg := mawigen.DefaultConfig(seed)
	cfg.BackgroundRate = 250
	// An abrupt, intense SYN flood: a clear histogram change at onset.
	cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindSYNFlood, Start: 30, Duration: 15, Rate: 500}}
	res := mawigen.Generate(cfg)
	return res, *res.Truth[0].Filters[0].Dst
}

func TestDetectFindsDistributionChange(t *testing.T) {
	res, victim := onsetTrace(t, 401)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Optimal))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("no alarms on an abrupt flood onset")
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
		t.Errorf("victim %v not in any of %d alarms", victim, len(alarms))
	}
}

func TestAlarmsAreAssociationRules(t *testing.T) {
	res, _ := onsetTrace(t, 403)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Optimal))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alarms {
		if len(a.Filters) != 1 {
			t.Fatalf("kl alarm should carry exactly one rule filter, got %d", len(a.Filters))
		}
		f := a.Filters[0]
		if !f.TimeBounded() {
			t.Fatal("rule filter must be bounded to the anomalous bin")
		}
		if f.Src == nil && f.Dst == nil && f.SrcPort == nil && f.DstPort == nil && f.Proto == nil {
			t.Fatal("rule filter must constrain at least one feature")
		}
		if !strings.Contains(a.Note, "kl divergence") {
			t.Fatalf("note = %q", a.Note)
		}
	}
}

func TestSensitivityOrdering(t *testing.T) {
	res, _ := onsetTrace(t, 405)
	d := New()
	sens, _ := d.Detect(trace.NewIndex(res.Trace), int(detectors.Sensitive))
	cons, _ := d.Detect(trace.NewIndex(res.Trace), int(detectors.Conservative))
	if len(sens) < len(cons) {
		t.Errorf("sensitive (%d) < conservative (%d)", len(sens), len(cons))
	}
}

func TestQuietBackground(t *testing.T) {
	cfg := mawigen.DefaultConfig(407)
	cfg.BackgroundRate = 250
	res := mawigen.Generate(cfg)
	d := New()
	alarms, err := d.Detect(trace.NewIndex(res.Trace), int(detectors.Conservative))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) > 5 {
		t.Errorf("conservative background alarms = %d", len(alarms))
	}
}

func TestShortEmptyAndConfig(t *testing.T) {
	d := New()
	if alarms, err := d.Detect(trace.NewIndex(&trace.Trace{}), 0); err != nil || len(alarms) != 0 {
		t.Error("empty trace should be silent")
	}
	short := &trace.Trace{}
	short.Append(trace.Packet{TS: 5e6, Proto: trace.UDP})
	if alarms, _ := d.Detect(trace.NewIndex(short), 0); len(alarms) != 0 {
		t.Error("too-short trace should be silent")
	}
	if _, err := d.Detect(trace.NewIndex(short), -1); err == nil {
		t.Error("bad config accepted")
	}
	if d.Name() != "kl" || d.NumConfigs() != 3 {
		t.Error("identity wrong")
	}
}

func TestFeatureNames(t *testing.T) {
	names := []string{"srcIP", "dstIP", "srcPort", "dstPort"}
	for f := FeatSrcIP; f < numFeatures; f++ {
		if f.String() != names[f] {
			t.Errorf("feature %d = %q", f, f.String())
		}
	}
	if Feature(99).String() != "feature?" {
		t.Error("unknown feature should render placeholder")
	}
}

func TestDeterministic(t *testing.T) {
	res, _ := onsetTrace(t, 409)
	d := New()
	a, _ := d.Detect(trace.NewIndex(res.Trace), 1)
	b, _ := d.Detect(trace.NewIndex(res.Trace), 1)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("nondeterministic alarms")
		}
	}
}
