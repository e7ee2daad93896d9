package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"mawilab/internal/heuristics"
)

func TestAssignLabelTaxonomy(t *testing.T) {
	cases := []struct {
		dec  Decision
		want Label
	}{
		{Decision{Accepted: true, RelDistance: 3}, Anomalous},
		{Decision{Accepted: false, RelDistance: 0.2}, Suspicious},
		{Decision{Accepted: false, RelDistance: 0.5}, Suspicious}, // boundary inclusive
		{Decision{Accepted: false, RelDistance: 0.51}, Notice},
		{Decision{Accepted: false, RelDistance: 9}, Notice},
	}
	for _, c := range cases {
		if got := AssignLabel(c.dec); got != c.want {
			t.Errorf("AssignLabel(%+v) = %v, want %v", c.dec, got, c.want)
		}
	}
}

func TestLabelString(t *testing.T) {
	if Anomalous.String() != "anomalous" || Suspicious.String() != "suspicious" ||
		Notice.String() != "notice" || Benign.String() != "benign" {
		t.Error("label names wrong")
	}
}

func TestBuildReports(t *testing.T) {
	tr := twoEventTrace()
	alarms := []Alarm{
		scanAlarm("a", 0), scanAlarm("b", 0),
		pingAlarm("a", 1),
	}
	res, err := estimate(tr, alarms, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	decisions := make([]Decision, len(res.Communities))
	for i := range decisions {
		decisions[i] = Decision{Accepted: true, RelDistance: 1}
	}
	reports, err := BuildReportsContext(context.Background(), res, decisions, DefaultReportOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(res.Communities) {
		t.Fatalf("reports = %d", len(reports))
	}
	// Find the scan community (2 alarms) and the ping community.
	for _, rep := range reports {
		c := &res.Communities[rep.Community]
		if rep.Label != Anomalous {
			t.Errorf("accepted community labeled %v", rep.Label)
		}
		if rep.Packets == 0 || rep.Flows == 0 {
			t.Errorf("community %d has empty traffic stats", rep.Community)
		}
		if len(rep.Rules) == 0 {
			t.Errorf("community %d has no rules", rep.Community)
		}
		if rep.RuleSupport <= 0 || rep.RuleSupport > 1 {
			t.Errorf("rule support = %f", rep.RuleSupport)
		}
		if rep.RuleDegree <= 0 || rep.RuleDegree > 4 {
			t.Errorf("rule degree = %f", rep.RuleDegree)
		}
		if len(c.Alarms) == 2 {
			// Scan community: heuristics must say Attack/SMB (port 445).
			if rep.Class != heuristics.Attack || rep.Category != heuristics.CatSMB {
				t.Errorf("scan community classified %v/%v", rep.Class, rep.Category)
			}
			// The mined rules must pin the scanner source IP.
			found := false
			for _, rl := range rep.Rules {
				if strings.Contains(rl.String(), "10.9.9.9") {
					found = true
				}
			}
			if !found {
				t.Errorf("rules %v do not mention scanner", rep.Rules)
			}
		}
		if rep.String() == "" {
			t.Error("report String empty")
		}
	}
}

func TestBuildReportsPingHeuristic(t *testing.T) {
	tr := twoEventTrace()
	res, err := estimate(tr, []Alarm{pingAlarm("a", 0)}, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	reports, err := BuildReportsContext(context.Background(), res, []Decision{{Accepted: false, RelDistance: 2}}, DefaultReportOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Class != heuristics.Attack || reports[0].Category != heuristics.CatPing {
		t.Errorf("ping community = %v/%v", reports[0].Class, reports[0].Category)
	}
	if reports[0].Label != Notice {
		t.Errorf("rejected far community labeled %v, want notice", reports[0].Label)
	}
}

func TestBuildReportsErrors(t *testing.T) {
	tr := twoEventTrace()
	res, err := estimate(tr, []Alarm{scanAlarm("a", 0)}, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildReportsContext(context.Background(), res, nil, DefaultReportOptions(), 1); err == nil {
		t.Error("mismatched decisions accepted")
	}
	for _, support := range []float64{0, -0.1, 1.5, math.NaN()} {
		if _, err := BuildReportsContext(context.Background(), res, []Decision{{}}, ReportOptions{RuleSupport: support}, 1); err == nil {
			t.Errorf("rule support %v accepted", support)
		}
	}
}
