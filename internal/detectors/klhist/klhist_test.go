package klhist

import (
	"context"
	"math"
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
		if f.Degree() == 0 {
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

// TestPrepareRejectsMisconfiguration: every field Prepare used to trust now
// fails by name — from Prepare, Detect and DetectAllContext alike — on a
// trace whose flood onset flags bins (so a negative MaxRulesPerBin would reach
// its slice expression). The defaults stay valid.
func TestPrepareRejectsMisconfiguration(t *testing.T) {
	res, _ := onsetTrace(t, 401)
	ix := trace.NewIndex(res.Trace)
	cases := []struct {
		name   string
		mutate func(*Detector)
		want   string // substring of the error; "" = valid
	}{
		{"defaults", func(*Detector) {}, ""},
		{"support of exactly one", func(d *Detector) { d.RuleSupport = 1 }, ""},
		{"no rule cap room", func(d *Detector) { d.MaxRulesPerBin = 0 }, ""},
		{"negative rule cap", func(d *Detector) { d.MaxRulesPerBin = -1 }, "MaxRulesPerBin"},
		{"zero time bin", func(d *Detector) { d.TimeBin = 0 }, "TimeBin"},
		{"negative time bin", func(d *Detector) { d.TimeBin = -5 }, "TimeBin"},
		{"NaN time bin", func(d *Detector) { d.TimeBin = math.NaN() }, "TimeBin"},
		{"infinite time bin", func(d *Detector) { d.TimeBin = math.Inf(1) }, "TimeBin"},
		{"nanosecond time bin", func(d *Detector) { d.TimeBin = 1e-9 }, "TimeBin"},
		{"zero support", func(d *Detector) { d.RuleSupport = 0 }, "RuleSupport"},
		{"negative support", func(d *Detector) { d.RuleSupport = -0.15 }, "RuleSupport"},
		{"support above one", func(d *Detector) { d.RuleSupport = 15 }, "RuleSupport"},
		{"NaN support", func(d *Detector) { d.RuleSupport = math.NaN() }, "RuleSupport"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New()
			tc.mutate(d)
			_, perr := d.Prepare(ix)
			_, derr := d.Detect(ix, int(detectors.Sensitive))
			_, _, aerr := detectors.DetectAllContext(context.Background(), ix, []detectors.Detector{d}, 1)
			for _, err := range []error{perr, derr, aerr} {
				switch {
				case tc.want == "" && err != nil:
					t.Errorf("valid configuration rejected: %v", err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Errorf("error = %v, want one naming %s", err, tc.want)
				}
			}
		})
	}
}
