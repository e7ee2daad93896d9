package wirev1

import (
	"bytes"
	"strings"
	"testing"

	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/trace"
)

// TestBestRuleFields: the best rule's tuple is the first rule's rendered
// fields, and a community without rules is all wildcards.
func TestBestRuleFields(t *testing.T) {
	rule := apriori.Rule{Items: []apriori.Item{
		{Field: apriori.FieldSrcIP, Value: uint64(trace.MakeIPv4(1, 2, 3, 4))},
		{Field: apriori.FieldSrcPort, Value: 80},
		{Field: apriori.FieldDstPort, Value: 443},
	}}
	rep := core.CommunityReport{Rules: []apriori.Rule{rule, {}}}
	src, sport, dst, dport := BestRule(rep)
	if src != "1.2.3.4" || sport != "80" || dst != "*" || dport != "443" {
		t.Errorf("BestRule = %s/%s/%s/%s", src, sport, dst, dport)
	}
	src, sport, dst, dport = BestRule(core.CommunityReport{})
	if src != "*" || sport != "*" || dst != "*" || dport != "*" {
		t.Errorf("rule-less BestRule = %s/%s/%s/%s", src, sport, dst, dport)
	}
}

// TestWriteCSVLayout pins the v1 CSV byte layout: header row, field order,
// wildcard degradation and the 4-decimal score format.
func TestWriteCSVLayout(t *testing.T) {
	reports := []core.CommunityReport{
		{Community: 0, Label: core.Anomalous, Packets: 12, Flows: 3,
			Decision: core.Decision{Score: 0.75}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reports); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row", len(lines))
	}
	if lines[0] != CSVHeader {
		t.Errorf("header = %q, want %q", lines[0], CSVHeader)
	}
	want := "0,anomalous,*,*,*,*,Unknown,Unknown,12,3,0.7500"
	if lines[1] != want {
		t.Errorf("row = %q, want %q", lines[1], want)
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != CSVHeader+"\n" {
		t.Errorf("empty labeling = %q, want bare header", got)
	}
}

// TestWriteADMDNilTrace pins that the ADMD encoder tolerates a nil index
// (time spans omitted) — the store re-encodes from reports without holding
// the packets.
func TestWriteADMDNilTrace(t *testing.T) {
	reports := []core.CommunityReport{
		{Community: 1, Label: core.Suspicious, Decision: core.Decision{Score: 0.5}},
	}
	var buf bytes.Buffer
	if err := WriteADMD(&buf, "t", nil, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `type="suspicious"`) {
		t.Errorf("admd output missing anomaly: %q", buf.String())
	}
}
