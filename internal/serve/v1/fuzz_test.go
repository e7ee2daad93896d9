package wirev1_test

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/xml"
	"math"
	"strconv"
	"strings"
	"testing"

	"mawilab"
	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/heuristics"
	wirev1 "mawilab/internal/serve/v1"
	"mawilab/internal/trace"
)

// The fuzz input is a sequence of reports, each laid out as: label, class,
// category and rule-count bytes; per rule a field-mask byte followed by the
// masked fields' values (4 bytes per address, 2 per port, big-endian);
// then packets and flows (4 bytes each) and the score's float64 bits (8
// bytes). A short tail reads as zeros.

// fuzzReader consumes fuzz bytes, yielding zeros once they run out.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) next(n int) []byte {
	out := make([]byte, n)
	r.data = r.data[copy(out, r.data):]
	return out
}

func (r *fuzzReader) one() byte { return r.next(1)[0] }

// reportsFrom decodes the fuzz input into reports with dense community ids.
func reportsFrom(data []byte) []core.CommunityReport {
	r := &fuzzReader{data: data}
	var reps []core.CommunityReport
	for len(r.data) > 0 {
		rep := core.CommunityReport{
			Community: len(reps),
			Label:     core.Label(r.one() % 4),
			Class:     heuristics.Class(r.one() % 3),
			Category:  heuristics.Category(r.one() % 9),
		}
		for n := r.one() % 4; n > 0; n-- {
			mask := r.one()
			var rule apriori.Rule
			for f := apriori.FieldSrcIP; f <= apriori.FieldDstPort; f++ {
				if mask&(1<<f) == 0 {
					continue
				}
				var v uint64
				if f == apriori.FieldSrcIP || f == apriori.FieldDstIP {
					v = uint64(binary.BigEndian.Uint32(r.next(4)))
				} else {
					v = uint64(binary.BigEndian.Uint16(r.next(2)))
				}
				rule.Items = append(rule.Items, apriori.Item{Field: f, Value: v})
			}
			rep.Rules = append(rep.Rules, rule)
		}
		rep.Packets = int(binary.BigEndian.Uint32(r.next(4)))
		rep.Flows = int(binary.BigEndian.Uint32(r.next(4)))
		rep.Decision.Score = math.Float64frombits(binary.BigEndian.Uint64(r.next(8)))
		reps = append(reps, rep)
	}
	return reps
}

// reportBytes is the inverse of reportsFrom for reports it can express:
// at most three rules, each with at most one item per field in field order.
func reportBytes(reps []core.CommunityReport) []byte {
	var b []byte
	for _, rep := range reps {
		rules := rep.Rules[:min(len(rep.Rules), 3)]
		b = append(b, byte(rep.Label), byte(rep.Class), byte(rep.Category), byte(len(rules)))
		for _, rule := range rules {
			var mask byte
			for _, it := range rule.Items {
				mask |= 1 << it.Field
			}
			b = append(b, mask)
			for _, it := range rule.Items {
				if it.Field == apriori.FieldSrcIP || it.Field == apriori.FieldDstIP {
					b = binary.BigEndian.AppendUint32(b, uint32(it.Value))
				} else {
					b = binary.BigEndian.AppendUint16(b, uint16(it.Value))
				}
			}
		}
		b = binary.BigEndian.AppendUint32(b, uint32(rep.Packets))
		b = binary.BigEndian.AppendUint32(b, uint32(rep.Flows))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(rep.Decision.Score))
	}
	return b
}

// goldenReports labels the golden archive day (testdata/pipeline_golden.json).
func goldenReports(f *testing.F) []core.CommunityReport {
	arch := mawilab.NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	l, err := mawilab.NewPipeline().Run(arch.Day(mawilab.Date(2004, 5, 10)).Trace)
	if err != nil {
		f.Fatal(err)
	}
	return l.Reports
}

// spanIndex is a two-packet index, the ADMD time bounds: its first packet at
// 0 s, its last at 59.5 s.
func spanIndex() *trace.Index {
	return trace.NewIndex(&trace.Trace{Packets: []trace.Packet{{TS: 0}, {TS: 59.5e6}}})
}

// FuzzWireRoundTrip encodes fuzzed reports in both v1 wire formats and
// parses them back with the standard library: every CSV row and every ADMD
// anomaly must carry its report's fields, whatever the score (0, negative,
// NaN, ±Inf) and however many items the rules constrain.
func FuzzWireRoundTrip(f *testing.F) {
	golden := goldenReports(f)
	f.Add(reportBytes(golden))
	special := append([]core.CommunityReport(nil), golden[:min(len(golden), 4)]...)
	for i, score := range []float64{0, -1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		rep := core.CommunityReport{Community: len(special), Label: core.Label(i % 4), Rules: []apriori.Rule{{}}}
		rep.Decision.Score = score
		special = append(special, rep)
	}
	f.Add(reportBytes(special))
	f.Add([]byte{})

	ix := spanIndex()
	f.Fuzz(func(t *testing.T, data []byte) {
		reps := reportsFrom(data)
		checkCSV(t, reps)
		for _, span := range []*trace.Index{ix, nil} {
			checkADMD(t, reps, span)
		}
	})
}

func checkCSV(t *testing.T, reps []core.CommunityReport) {
	var buf bytes.Buffer
	if err := wirev1.WriteCSV(&buf, reps); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(rows) != 1+len(reps) {
		t.Fatalf("CSV has %d rows, want a header and %d", len(rows), len(reps))
	}
	if got := strings.Join(rows[0], ","); got != wirev1.CSVHeader {
		t.Fatalf("CSV header %q, want %q", got, wirev1.CSVHeader)
	}
	for i, rep := range reps {
		row := rows[1+i]
		if len(row) != 11 {
			t.Fatalf("row %d has %d fields, want 11", i, len(row))
		}
		src, sport, dst, dport := wirev1.BestRule(rep)
		want := []string{strconv.Itoa(rep.Community), rep.Label.String(), src, sport, dst, dport,
			rep.Class.String(), rep.Category.String(), strconv.Itoa(rep.Packets), strconv.Itoa(rep.Flows)}
		for j, w := range want {
			if row[j] != w {
				t.Errorf("row %d field %d = %q, want %q", i, j, row[j], w)
			}
		}
	}
}

func checkADMD(t *testing.T, reps []core.CommunityReport, span *trace.Index) {
	var buf bytes.Buffer
	if err := wirev1.WriteADMD(&buf, "fuzz", span, reps); err != nil {
		t.Fatal(err)
	}
	var doc wirev1.Document
	if err := xml.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("ADMD does not parse: %v", err)
	}
	var want []core.CommunityReport
	for _, rep := range reps {
		if rep.Label != core.Benign {
			want = append(want, rep)
		}
	}
	if len(doc.Anomalies) != len(want) {
		t.Fatalf("span %v: %d anomalies, want %d", span != nil, len(doc.Anomalies), len(want))
	}
	for i, rep := range want {
		a := doc.Anomalies[i]
		if a.Type != rep.Label.String() || a.Value != rep.Category.String() || a.Community != rep.Community {
			t.Errorf("anomaly %d = %s/%s/%d, want %s/%s/%d", i, a.Type, a.Value, a.Community,
				rep.Label, rep.Category, rep.Community)
		}
		if got, sc := a.Score, rep.Decision.Score; got != sc && !(math.IsNaN(got) && math.IsNaN(sc)) {
			t.Errorf("anomaly %d score %v, want %v", i, got, sc)
		}
		var to wirev1.TimeRef
		if span != nil && rep.Packets > 0 {
			to = wirev1.TimeRef{Sec: 59, Usec: 500000}
		}
		if a.From != (wirev1.TimeRef{}) || a.To != to {
			t.Errorf("anomaly %d spans %+v to %+v, want 0 to %+v", i, a.From, a.To, to)
		}
		slices := []wirev1.Slice{{}}
		if len(rep.Rules) > 0 {
			slices = slices[:0]
			for _, rule := range rep.Rules {
				f := rule.Fields()
				for k, v := range f {
					if v == "*" {
						f[k] = ""
					}
				}
				slices = append(slices, wirev1.Slice{SrcIP: f[0], SrcPort: f[1], DstIP: f[2], DstPort: f[3]})
			}
		}
		if len(a.Slices) != len(slices) {
			t.Fatalf("anomaly %d has %d slices, want %d", i, len(a.Slices), len(slices))
		}
		for k := range slices {
			if a.Slices[k] != slices[k] {
				t.Errorf("anomaly %d slice %d = %+v, want %+v", i, k, a.Slices[k], slices[k])
			}
		}
	}
}
