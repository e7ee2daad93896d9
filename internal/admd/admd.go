// Package admd encodes labelings in the Anomaly Description
// Meta Data (admd) XML dialect, the format in which the real MAWILab
// database publishes its daily labels. Each anomaly carries its taxonomy
// label, heuristic value, time span, and one or more traffic filters
// (slices) in the 4-tuple language of the paper's rules.
package admd

import (
	"encoding/xml"
	"fmt"
	"io"

	"mawilab/internal/apriori"
	"mawilab/internal/core"
)

// Document is the root <admd:document> element.
type Document struct {
	XMLName   xml.Name  `xml:"document"`
	Namespace string    `xml:"xmlns:admd,attr"`
	Trace     string    `xml:"trace,attr"`
	Anomalies []Anomaly `xml:"anomaly"`
}

// Anomaly is one labeled community.
type Anomaly struct {
	// Type is the taxonomy label: anomalous, suspicious, or notice.
	Type string `xml:"type,attr"`
	// Value is the heuristic category (Table 1), lowercased.
	Value string `xml:"value,attr"`
	// Community is the community index in the labeling.
	Community int `xml:"community,attr"`
	// Score is the combiner score (SCANN: d_rej/(d_acc+d_rej)).
	Score float64 `xml:"score,attr"`
	From  TimeRef `xml:"from"`
	To    TimeRef `xml:"to"`
	// Slices are the traffic filters describing the anomaly.
	Slices []Slice `xml:"slice"`
}

// TimeRef is a second/microsecond timestamp pair.
type TimeRef struct {
	Sec  int64 `xml:"sec,attr"`
	Usec int64 `xml:"usec,attr"`
}

// Slice is one 4-tuple filter. Empty attributes mean wildcards.
type Slice struct {
	SrcIP   string `xml:"src_ip,attr,omitempty"`
	SrcPort string `xml:"src_port,attr,omitempty"`
	DstIP   string `xml:"dst_ip,attr,omitempty"`
	DstPort string `xml:"dst_port,attr,omitempty"`
	Proto   string `xml:"proto,attr,omitempty"`
}

// namespace is the admd namespace URI used by MAWILab documents.
const namespace = "http://www.fukuda-lab.org/mawilab/admd"

// TimeSpan supplies the bounds anomaly time spans derive from: the first
// packet's and the last packet's timestamp in seconds. Both *trace.Trace and
// *trace.Index satisfy it, so the fused serving path can encode straight off
// the columnar index. Callers holding a possibly-nil concrete pointer must
// pass a nil interface, not a typed nil.
type TimeSpan interface {
	Start() float64
	Duration() float64
}

// Encode writes the labeling as an admd XML document. Benign traffic is
// implicit (anything not covered), matching the published database.
func Encode(w io.Writer, traceName string, tr TimeSpan, reports []core.CommunityReport) error {
	doc := Document{Namespace: namespace, Trace: traceName}
	for _, rep := range reports {
		if rep.Label == core.Benign {
			continue
		}
		a := Anomaly{
			Type:      rep.Label.String(),
			Value:     rep.Category.String(),
			Community: rep.Community,
			Score:     rep.Decision.Score,
		}
		// Time span: bounds of the community's packets.
		if rep.Packets > 0 && tr != nil {
			a.From, a.To = spanOf(tr)
		}
		for _, rule := range rep.Rules {
			a.Slices = append(a.Slices, sliceOf(rule))
		}
		if len(a.Slices) == 0 {
			a.Slices = []Slice{{}}
		}
		doc.Anomalies = append(doc.Anomalies, a)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("admd: encode: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// spanOf is the span of the trace or window the community's packets lie in:
// reports keep no packet indices, so a community's own bounds are not known
// here. It opens on the first packet's whole second — the capture slot a
// decoded pcap is rebased to, so a day starts at 0 and a streamed window at
// its first packet's second — and closes on the last packet.
func spanOf(tr TimeSpan) (TimeRef, TimeRef) {
	from := TimeRef{Sec: int64(tr.Start())}
	dur := tr.Duration()
	to := TimeRef{Sec: int64(dur), Usec: int64((dur - float64(int64(dur))) * 1e6)}
	return from, to
}

// sliceOf is the rule's slice: its rendered fields, with a wildcard left
// empty.
func sliceOf(r apriori.Rule) Slice {
	f := r.Fields()
	for i, v := range f {
		if v == "*" {
			f[i] = ""
		}
	}
	return Slice{
		SrcIP: f[apriori.FieldSrcIP], SrcPort: f[apriori.FieldSrcPort],
		DstIP: f[apriori.FieldDstIP], DstPort: f[apriori.FieldDstPort],
	}
}
