package core

import (
	"math"
	"reflect"
	"testing"
)

// paperExampleResult reproduces Fig. 2: a community cex of five alarms
// {A0, A1, B0, B1, B2} out of nine configurations (detectors A, B, C with
// parameter sets 0,1,2). All five alarms designate the same traffic so they
// cluster into one community.
func paperExampleResult(t *testing.T) (*Result, map[string]int) {
	t.Helper()
	tr := twoEventTrace()
	alarms := []Alarm{
		scanAlarm("A", 0),
		scanAlarm("A", 1),
		scanAlarm("B", 0),
		scanAlarm("B", 1),
		scanAlarm("B", 2),
	}
	res, err := estimate(tr, alarms, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 1 {
		t.Fatalf("paper example should form one community, got %d", len(res.Communities))
	}
	totals := map[string]int{"A": 3, "B": 3, "C": 3}
	return res, totals
}

func TestConfidenceScoresPaperExample(t *testing.T) {
	// Fig. 2: ϕA = 2/3 ≈ 0.66, ϕB = 3/3 = 1.0, ϕC = 0/3 = 0.0.
	res, totals := paperExampleResult(t)
	conf := res.Confidences(totals)
	scores := conf[0]
	if math.Abs(scores["A"]-2.0/3.0) > 1e-12 {
		t.Errorf("ϕA = %f, want 0.66", scores["A"])
	}
	if scores["B"] != 1.0 {
		t.Errorf("ϕB = %f, want 1.0", scores["B"])
	}
	if scores["C"] != 0.0 {
		t.Errorf("ϕC = %f, want 0.0", scores["C"])
	}
}

func TestAverageStrategyPaperExample(t *testing.T) {
	// §2.2.3: average = 5/9 > 0.5 → accepted.
	res, totals := paperExampleResult(t)
	conf := res.Confidences(totals)
	dec, err := NewAverage().Classify(res, conf)
	if err != nil {
		t.Fatal(err)
	}
	if !dec[0].Accepted {
		t.Error("average should accept cex")
	}
	if math.Abs(dec[0].Score-5.0/9.0) > 1e-12 {
		t.Errorf("µ = %f, want 5/9", dec[0].Score)
	}
}

func TestMinimumStrategyPaperExample(t *testing.T) {
	// §2.2.3: min = 0 → rejected.
	res, totals := paperExampleResult(t)
	conf := res.Confidences(totals)
	dec, err := NewMinimum().Classify(res, conf)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].Accepted {
		t.Error("minimum should reject cex")
	}
	if dec[0].Score != 0 {
		t.Errorf("µ = %f, want 0", dec[0].Score)
	}
}

func TestMaximumStrategyPaperExample(t *testing.T) {
	// §2.2.3: max = 1 → accepted.
	res, totals := paperExampleResult(t)
	conf := res.Confidences(totals)
	dec, err := NewMaximum().Classify(res, conf)
	if err != nil {
		t.Fatal(err)
	}
	if !dec[0].Accepted {
		t.Error("maximum should accept cex")
	}
	if dec[0].Score != 1 {
		t.Errorf("µ = %f, want 1", dec[0].Score)
	}
}

func TestSortedDetectorsOrder(t *testing.T) {
	scores := DetectorScores{"pca": 1, "gamma": 0.5, "kl": 0, "hough": 0.25}
	want := []string{"gamma", "hough", "kl", "pca"}
	got := sortedDetectors(scores)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sortedDetectors = %v, want %v", got, want)
	}
	if len(sortedDetectors(DetectorScores{})) != 0 {
		t.Error("empty scores must give no detectors")
	}
}

func TestStrategyLengthMismatch(t *testing.T) {
	res, _ := paperExampleResult(t)
	for _, s := range []Strategy{NewAverage(), NewMinimum(), NewMaximum()} {
		if _, err := s.Classify(res, nil); err == nil {
			t.Errorf("%s accepted mismatched confidence table", s.Name())
		}
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[string]Strategy{
		"average": NewAverage(), "minimum": NewMinimum(),
		"maximum": NewMaximum(), "SCANN": NewSCANN(),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestConfidenceEmptyTotals(t *testing.T) {
	res, _ := paperExampleResult(t)
	conf := res.Confidences(map[string]int{"A": 0})
	if len(conf[0]) != 0 {
		t.Error("zero-total detector should be skipped")
	}
}
