package wirev1

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"time"

	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/heuristics"
	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

func sampleReports() []core.CommunityReport {
	rule := apriori.Rule{Items: []apriori.Item{
		{Field: apriori.FieldSrcIP, Value: uint64(trace.MakeIPv4(203, 0, 1, 2))},
		{Field: apriori.FieldDstPort, Value: 445},
	}}
	return []core.CommunityReport{
		{
			Community: 0, Label: core.Anomalous,
			Decision: core.Decision{Accepted: true, Score: 0.8},
			Rules:    []apriori.Rule{rule},
			Class:    heuristics.Attack, Category: heuristics.CatSMB,
			Packets: 100, Flows: 50,
		},
		{
			Community: 1, Label: core.Suspicious,
			Decision: core.Decision{Score: 0.45, RelDistance: 0.2},
			Class:    heuristics.Unknown, Category: heuristics.CatUnknown,
			Packets: 10, Flows: 3,
		},
		{
			Community: 2, Label: core.Benign, // must be omitted
		},
	}
}

// sampleIndex is a two-packet index spanning [0, 59.5] s.
func sampleIndex() *trace.Index {
	tr := &trace.Trace{Name: "t"}
	tr.Append(trace.Packet{TS: 0, Proto: trace.TCP, Len: 40})
	tr.Append(trace.Packet{TS: 59.5e6, Proto: trace.TCP, Len: 40})
	return trace.NewIndex(tr)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteADMD(&buf, "2004-05-10", sampleIndex(), sampleReports()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `type="anomalous"`) || !strings.Contains(out, `type="suspicious"`) {
		t.Errorf("labels missing:\n%s", out)
	}
	if strings.Contains(out, "benign") {
		t.Error("benign communities must be implicit")
	}
	if !strings.Contains(out, `src_ip="203.0.1.2"`) || !strings.Contains(out, `dst_port="445"`) {
		t.Errorf("slice fields missing:\n%s", out)
	}

	var doc Document
	if err := xml.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trace != "2004-05-10" {
		t.Errorf("trace attr = %q", doc.Trace)
	}
	if len(doc.Anomalies) != 2 {
		t.Fatalf("anomalies = %d, want 2", len(doc.Anomalies))
	}
	a := doc.Anomalies[0]
	if a.Type != "anomalous" || a.Value != "SMB" || a.Score != 0.8 {
		t.Errorf("anomaly 0 = %+v", a)
	}
	if a.From != (TimeRef{}) || a.To != (TimeRef{Sec: 59, Usec: 500000}) {
		t.Errorf("anomaly 0 spans %+v to %+v, want the index's 0 to 59.5 s", a.From, a.To)
	}
}

// TestFiltersFromDecodedSlices: a rule's filter is published as one slice
// holding its rendered fields, wildcards left empty.
func TestFiltersFromDecodedSlices(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteADMD(&buf, "x", sampleIndex(), sampleReports()); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := xml.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := []Slice{{SrcIP: "203.0.1.2", DstPort: "445"}}
	if got := doc.Anomalies[0].Slices; len(got) != 1 || got[0] != want[0] {
		t.Errorf("slices = %+v, want %+v", got, want)
	}
}

func TestAnomalyWithoutRulesGetsEmptySlice(t *testing.T) {
	var buf bytes.Buffer
	reports := []core.CommunityReport{{
		Community: 0, Label: core.Notice,
		Decision: core.Decision{RelDistance: 2},
		Packets:  5,
	}}
	if err := WriteADMD(&buf, "x", sampleIndex(), reports); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := xml.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Anomalies[0].Slices) != 1 || doc.Anomalies[0].Slices[0] != (Slice{}) {
		t.Error("rule-less anomaly should carry one wildcard slice")
	}
}

// TestADMDSpanEndsOnLastPacket: an anomaly's <to> is the last packet's
// timestamp to the microsecond. On these two archive days the seconds
// column's fraction, scaled back by 1e6 and truncated, came out one
// microsecond short (998382 and 998249).
func TestADMDSpanEndsOnLastPacket(t *testing.T) {
	arch := mawigen.NewArchive(1)
	for _, c := range []struct {
		date string
		want TimeRef
	}{
		{"2004-05-13", TimeRef{Sec: 59, Usec: 998383}},
		{"2004-05-14", TimeRef{Sec: 59, Usec: 998250}},
	} {
		day, err := time.Parse(time.DateOnly, c.date)
		if err != nil {
			t.Fatal(err)
		}
		ix := trace.NewIndex(arch.Day(day).Trace)
		if last := ix.TS[ix.Len()-1]; last != c.want.Sec*1e6+c.want.Usec {
			t.Fatalf("%s: last packet at %d µs, want %d", c.date, last, c.want.Sec*1e6+c.want.Usec)
		}
		var buf bytes.Buffer
		if err := WriteADMD(&buf, c.date, ix, sampleReports()); err != nil {
			t.Fatal(err)
		}
		var doc Document
		if err := xml.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		for _, a := range doc.Anomalies {
			if a.From != (TimeRef{}) || a.To != c.want {
				t.Errorf("%s: anomaly %d spans %+v to %+v, want 0 to %+v", c.date, a.Community, a.From, a.To, c.want)
			}
		}
	}
}
