package detectors

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mawilab/internal/core"
	"mawilab/internal/trace"
)

// fakeDetector emits a fixed number of alarms per config.
type fakeDetector struct {
	name    string
	configs int
	fail    bool
}

func (f *fakeDetector) Name() string    { return f.name }
func (f *fakeDetector) NumConfigs() int { return f.configs }
func (f *fakeDetector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	if f.fail {
		return nil, errors.New("boom")
	}
	return []core.Alarm{{Detector: f.name, Config: config}}, nil
}

func TestDetectAll(t *testing.T) {
	dets := []Detector{
		&fakeDetector{name: "a", configs: 3},
		&fakeDetector{name: "b", configs: 2},
	}
	alarms, totals, err := DetectAllContext(context.Background(), trace.NewIndex(&trace.Trace{}), dets, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 5 {
		t.Errorf("alarms = %d, want 5", len(alarms))
	}
	if totals["a"] != 3 || totals["b"] != 2 {
		t.Errorf("totals = %v", totals)
	}
	keys, _ := core.ConfigUniverse(alarms)
	if len(keys) != 5 {
		t.Errorf("config universe = %v", keys)
	}
}

func TestDetectAllPropagatesError(t *testing.T) {
	dets := []Detector{&fakeDetector{name: "bad", configs: 1, fail: true}}
	if _, _, err := DetectAllContext(context.Background(), trace.NewIndex(&trace.Trace{}), dets, 1); err == nil {
		t.Error("error not propagated")
	}
}

func TestCheckConfig(t *testing.T) {
	d := &fakeDetector{name: "x", configs: 3}
	if err := CheckConfig(d, 0); err != nil {
		t.Error("config 0 should be valid")
	}
	if err := CheckConfig(d, 2); err != nil {
		t.Error("config 2 should be valid")
	}
	if err := CheckConfig(d, 3); err == nil {
		t.Error("config 3 should be invalid")
	}
	if err := CheckConfig(d, -1); err == nil {
		t.Error("config -1 should be invalid")
	}
}

func TestTuningString(t *testing.T) {
	if Optimal.String() != "optimal" || Sensitive.String() != "sensitive" || Conservative.String() != "conservative" {
		t.Error("tuning names wrong")
	}
	if Tuning(42).String() == "" {
		t.Error("unknown tuning should render")
	}
	if int(NumTunings) != 3 {
		t.Errorf("NumTunings = %d", NumTunings)
	}
}

func TestDetectAllRejectsDuplicateNames(t *testing.T) {
	dets := []Detector{
		&fakeDetector{name: "a", configs: 3},
		&fakeDetector{name: "b", configs: 2},
		&fakeDetector{name: "a", configs: 1},
	}
	if _, err := Totals(dets); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("Totals error = %v, want one naming the repeated detector", err)
	}
	alarms, totals, err := DetectAllContext(context.Background(), trace.NewIndex(&trace.Trace{}), dets, 1)
	if err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("DetectAllContext error = %v, want one naming the repeated detector", err)
	}
	if alarms != nil || totals != nil {
		t.Errorf("results returned beside the error: %v %v", alarms, totals)
	}
}

// fakePreparer counts its Prepare calls and answers Decide from the
// prepared value alone; Detect must never be reached through DetectAllContext.
type fakePreparer struct {
	fakeDetector
	prepares   atomic.Int32
	detects    atomic.Int32
	prepareErr error
}

func (f *fakePreparer) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	f.detects.Add(1)
	return f.fakeDetector.Detect(ix, config)
}

func (f *fakePreparer) Prepare(ix *trace.Index) (Prepared, error) {
	f.prepares.Add(1)
	if f.prepareErr != nil {
		return nil, f.prepareErr
	}
	return unprepared{&f.fakeDetector, ix}, nil
}

func TestDetectAllMixesPreparersAndPlainDetectors(t *testing.T) {
	ix := trace.NewIndex(&trace.Trace{})
	for _, workers := range []int{1, 4} {
		prep := &fakePreparer{fakeDetector: fakeDetector{name: "prep", configs: 3}}
		plain := &fakeDetector{name: "plain", configs: 2}
		alarms, totals, err := DetectAllContext(context.Background(), ix, []Detector{prep, plain}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if n := prep.prepares.Load(); n != 1 {
			t.Errorf("workers=%d: Prepare called %d times, want exactly 1", workers, n)
		}
		if n := prep.detects.Load(); n != 0 {
			t.Errorf("workers=%d: a Preparer's Detect was called %d times", workers, n)
		}
		want := []core.Alarm{
			{Detector: "prep", Config: 0}, {Detector: "prep", Config: 1}, {Detector: "prep", Config: 2},
			{Detector: "plain", Config: 0}, {Detector: "plain", Config: 1},
		}
		if !reflect.DeepEqual(alarms, want) {
			t.Errorf("workers=%d: alarms = %v, want %v", workers, alarms, want)
		}
		if totals["prep"] != 3 || totals["plain"] != 2 {
			t.Errorf("workers=%d: totals = %v", workers, totals)
		}
	}

	// A failing Prepare stops the run before any decision, wrapped with the
	// detector's name.
	boom := errors.New("boom")
	bad := &fakePreparer{fakeDetector: fakeDetector{name: "bad", configs: 3}, prepareErr: boom}
	_, _, err := DetectAllContext(context.Background(), ix, []Detector{&fakeDetector{name: "ok", configs: 1}, bad}, 1)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad") {
		t.Errorf("error = %v, want boom wrapped with the detector's name", err)
	}
}
