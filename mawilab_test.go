package mawilab

import (
	"bytes"
	"context"
	"encoding/xml"
	"strings"
	"testing"
	"time"

	"mawilab/internal/detectors"
	wirev1 "mawilab/internal/serve/v1"
	"mawilab/internal/trace"
)

func TestPipelineRunOnArchiveDay(t *testing.T) {
	arch := NewArchive(42)
	arch.Duration = 45
	arch.BaseRate = 250
	day := arch.Day(Date(2004, time.May, 10)) // Sasser era
	l, err := NewPipeline().Run(day.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Reports) == 0 {
		t.Fatal("no reports")
	}
	if len(l.Decisions) != len(l.Reports) {
		t.Error("decisions misaligned")
	}
	anomalies := l.Anomalies()
	if len(anomalies) == 0 {
		t.Fatal("Sasser-era day produced no anomalous labels")
	}
	detected, total := GroundTruthEval(day.Trace, l, day.Truth, 10)
	if total == 0 {
		t.Fatal("no ground truth")
	}
	if detected == 0 {
		t.Error("no ground-truth event detected")
	}
}

func TestPipelineCSV(t *testing.T) {
	arch := NewArchive(43)
	arch.Duration = 45
	arch.BaseRate = 250
	day := arch.Day(Date(2003, time.September, 2)) // Blaster era
	l, err := NewPipeline().Run(day.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(l.Reports)+1 {
		t.Errorf("csv lines = %d, want %d", len(lines), len(l.Reports)+1)
	}
	if !strings.HasPrefix(lines[0], "community,label,") {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != 10 {
			t.Errorf("malformed csv row: %q", line)
		}
	}
}

func TestRunAlarmsCustomDetector(t *testing.T) {
	// The §6 extension point: externally produced alarms flow through the
	// estimator and combiner unchanged.
	arch := NewArchive(44)
	arch.Duration = 45
	arch.BaseRate = 250
	day := arch.Day(Date(2005, time.March, 1))
	tr := day.Trace

	// A trivial "volume detector": the top-talker source.
	counts := make(map[IPv4]int)
	for i := range tr.Packets {
		counts[tr.Packets[i].Src]++
	}
	var top IPv4
	best := -1
	for ip, n := range counts {
		if n > best || (n == best && ip < top) {
			top, best = ip, n
		}
	}
	alarms := []Alarm{
		{Detector: "volume", Config: 0, Filters: []Filter{NewFilter().WithSrc(top)}},
		{Detector: "volume", Config: 1, Filters: []Filter{NewFilter().WithSrc(top)}},
	}
	p := NewPipeline()
	l, err := p.RunAlarms(tr, alarms, map[string]int{"volume": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Reports) != 1 {
		t.Fatalf("reports = %d, want 1 community", len(l.Reports))
	}
}

func TestPcapRoundTripThroughFacade(t *testing.T) {
	arch := NewArchive(45)
	arch.Duration = 10
	arch.BaseRate = 100
	day := arch.Day(Date(2002, time.June, 3))
	var buf bytes.Buffer
	if err := WritePcap(&buf, day.Trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != day.Trace.Len() {
		t.Errorf("round trip lost packets: %d vs %d", back.Len(), day.Trace.Len())
	}
}

// TestWritePcapIsEncodePcapOfIndex: the module writes one pcap form. A
// generated day's rows through WritePcap are, byte for byte, EncodePcap of
// the day's index.
func TestWritePcapIsEncodePcapOfIndex(t *testing.T) {
	arch := NewArchive(1)
	arch.Duration = 30
	for _, date := range []time.Time{Date(2001, 9, 17), Date(2004, 5, 10), Date(2008, 12, 15)} {
		day := arch.Day(date).Trace
		var rows, index bytes.Buffer
		if err := WritePcap(&rows, day); err != nil {
			t.Fatal(err)
		}
		if err := EncodePcap(&index, trace.NewIndex(day)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rows.Bytes(), index.Bytes()) {
			t.Errorf("%s: WritePcap wrote %d bytes, EncodePcap of its index %d; want the same bytes", day.Name, rows.Len(), index.Len())
		}
	}
}

// TestEncodePcapRoundTripCorpora: for every day mawibench's batch_day and
// serve workloads upload (archive seed 1, their durations and rates), the
// payload-stripped EncodePcap of the decoded index is the upload byte for
// byte — WritePcap writes that form — at most the global header plus 70
// bytes per packet, and decodes to the upload's digest.
func TestEncodePcapRoundTripCorpora(t *testing.T) {
	type corpus struct {
		duration, rate float64
		dates          []time.Time
	}
	for name, c := range map[string]corpus{
		"batch_day": {60, 300, []time.Time{
			Date(2001, 3, 6), Date(2002, 5, 14), Date(2003, 8, 20), Date(2004, 5, 10),
			Date(2005, 7, 3), Date(2006, 11, 19), Date(2008, 2, 8), Date(2009, 9, 27),
		}},
		"serve": {30, 200, []time.Time{
			Date(2001, 2, 5), Date(2001, 9, 17), Date(2002, 4, 8), Date(2002, 11, 25),
			Date(2003, 3, 3), Date(2003, 10, 20), Date(2004, 1, 12), Date(2004, 6, 7),
			Date(2005, 2, 14), Date(2005, 8, 1), Date(2006, 5, 22), Date(2006, 12, 4),
			Date(2007, 4, 16), Date(2007, 10, 29), Date(2008, 6, 9), Date(2008, 12, 15),
			Date(2009, 3, 9), // the warm-up day
		}},
	} {
		arch := NewArchive(1)
		arch.Duration, arch.BaseRate = c.duration, c.rate
		for _, date := range c.dates {
			day := arch.Day(date).Trace
			var upload bytes.Buffer
			if err := WritePcap(&upload, day); err != nil {
				t.Fatal(err)
			}
			uploaded := bytes.Clone(upload.Bytes())
			ix, err := DecodePcap(&upload)
			if err != nil {
				t.Fatal(err)
			}
			var stored bytes.Buffer
			if err := EncodePcap(&stored, ix); err != nil {
				t.Fatal(err)
			}
			digest, packets := ix.Digest(), ix.Len()
			ix.Release()
			if bound := 24 + 70*packets; stored.Len() > bound || !bytes.Equal(stored.Bytes(), uploaded) {
				t.Errorf("%s %s: stored %d bytes, not the %d-byte upload's, bound %d", name, day.Name, stored.Len(), len(uploaded), bound)
			}
			back, err := DecodePcap(&stored)
			if err != nil {
				t.Fatal(err)
			}
			if got := back.Digest(); got != digest || got != trace.NewIndex(day).Digest() {
				t.Errorf("%s %s: stored trace decodes to digest %s, upload %s", name, day.Name, got, digest)
			}
			back.Release()
		}
	}
}

func TestFacadeHelpers(t *testing.T) {
	ip, err := ParseIPv4("10.1.2.3")
	if err != nil || ip != MakeIPv4(10, 1, 2, 3) {
		t.Error("ParseIPv4/MakeIPv4 mismatch")
	}
	if len(StandardDetectors()) != 4 {
		t.Error("standard detectors != 4")
	}
	for _, s := range []Strategy{Average(), Minimum(), Maximum(), SCANN()} {
		if s.Name() == "" {
			t.Error("strategy without name")
		}
	}
	if Anomalous.String() != "anomalous" || Benign.String() != "benign" {
		t.Error("label names wrong")
	}
}

func TestWriteADMD(t *testing.T) {
	arch := NewArchive(46)
	arch.Duration = 30
	arch.BaseRate = 200
	day := arch.Day(Date(2004, time.June, 1))
	l, err := NewPipeline().Run(day.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.WriteADMD(&buf, day.Trace.Name); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<document") || !strings.Contains(out, "anomaly") {
		t.Errorf("admd output malformed:\n%s", out[:min(400, len(out))])
	}
	if !strings.Contains(out, `trace="2004-06-01"`) {
		t.Error("trace attribute missing")
	}
}

// TestADMDSpanIsTheLabeledIndex: at every entry point Labeling.WriteADMD
// spans the index the labeling was computed on — the sealed trace for Run
// and RunAlarms, the caller's index for RunIndex, a streamed window's own
// packets for a window — and a Labeling without a Result writes no span.
func TestADMDSpanIsTheLabeledIndex(t *testing.T) {
	ctx := context.Background()
	day := streamTestDay(t)
	dayIx := trace.NewIndex(day)
	batch, err := NewPipeline().Run(day)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := detectors.Totals(StandardDetectors())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline()
	p.Stream = StreamConfig{SegmentSeconds: 5, WindowSegments: 4, WindowStride: 1}
	windows, err := drainStream(p.RunStream(ctx, replay(day)))
	if err != nil {
		t.Fatal(err)
	}
	last := windows[len(windows)-1]
	lo, hi := dayIx.Window(int64(last.Start*1e6), int64(last.End*1e6))
	lastIx := trace.NewIndex(&Trace{Packets: day.Packets[lo:hi]})

	encode := func(ix *Index, reports []CommunityReport) string {
		var buf bytes.Buffer
		if err := wirev1.WriteADMD(&buf, "span", ix, reports); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, tc := range []struct {
		name string
		run  func() (*Labeling, error)
		ix   *Index
	}{
		{"Run", func() (*Labeling, error) { return NewPipeline().Run(day) }, dayIx},
		{"RunIndex", func() (*Labeling, error) { return NewPipeline().RunIndex(ctx, trace.NewIndex(day)) }, dayIx},
		{"RunAlarms", func() (*Labeling, error) { return NewPipeline().RunAlarms(day, batch.Alarms, totals) }, dayIx},
		{"stream window", func() (*Labeling, error) { return last.Labeling, nil }, lastIx},
	} {
		l, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got bytes.Buffer
		if err := l.WriteADMD(&got, "span"); err != nil {
			t.Fatal(err)
		}
		want := encode(tc.ix, l.Reports)
		if got.String() != want {
			t.Errorf("%s: WriteADMD does not span the labeled index", tc.name)
		}
		if want == encode(nil, l.Reports) {
			t.Errorf("%s: no anomaly carries a span, nothing was checked", tc.name)
		}
		if tc.ix == lastIx && want == encode(dayIx, l.Reports) {
			t.Errorf("%s: the window's span is the whole day's", tc.name)
		}
	}

	var bare bytes.Buffer
	if err := (&Labeling{Reports: batch.Reports}).WriteADMD(&bare, "span"); err != nil {
		t.Fatal(err)
	}
	var doc wirev1.Document
	if err := xml.Unmarshal(bare.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, a := range doc.Anomalies {
		if a.From != (wirev1.TimeRef{}) || a.To != (wirev1.TimeRef{}) {
			t.Errorf("a Labeling without a Result wrote the span %+v to %+v", a.From, a.To)
		}
	}
	if len(doc.Anomalies) == 0 || bare.String() != encode(nil, batch.Reports) {
		t.Error("a Labeling without a Result does not write its reports without spans")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
