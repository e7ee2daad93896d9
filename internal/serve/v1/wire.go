// Package wirev1 is the v1 wire schema for MAWILab labelings: the one
// place the CSV and ADMD byte layouts are defined, shared verbatim by the
// batch CLI (Labeling.WriteCSV / Labeling.WriteADMD) and the mawilabd HTTP
// API (GET /v1/labels/{digest}). Because both paths call the same encoder
// over the same []core.CommunityReport, a served labeling is provably
// byte-identical to the CLI output for the same trace — the determinism
// contract extends across the wire.
//
// # CSV schema (v1)
//
// Content type: ContentTypeCSV. One header row, then one row per community
// in community order:
//
//	community  int     dense community index
//	label      string  taxonomy label: benign|notice|suspicious|anomalous
//	srcIP      string  best rule source address, "*" = wildcard
//	srcPort    string  best rule source port, "*" = wildcard
//	dstIP      string  best rule destination address, "*" = wildcard
//	dstPort    string  best rule destination port, "*" = wildcard
//	heuristic  string  Table 1 heuristic class
//	category   string  Table 1 heuristic category
//	packets    int     community traffic size in packets
//	flows      int     community traffic size in flows
//	score      float   combiner score, 4 decimal places
//
// The best rule is the community's first mined rule; a community with no
// rules degrades all four tuple fields to "*".
//
// # ADMD schema (v1)
//
// Content type: ContentTypeADMD. The Anomaly Description Meta Data XML
// dialect of the published MAWILab database (Document): one <anomaly>
// element per non-benign community with taxonomy label, heuristic value,
// time span and slice filters — one or more traffic filters in the 4-tuple
// language of the paper's rules.
//
// Schema changes are additive-only within a version; a breaking layout
// change mints a v2 package and a new endpoint, never a silent edit here.
package wirev1

import (
	"encoding/xml"
	"fmt"
	"io"

	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/trace"
)

// Version is the wire schema version this package encodes.
const Version = 1

// Content types negotiated by the labels endpoint and declared by the CLI
// formats.
const (
	// ContentTypeCSV is the media type of the CSV labeling encoding.
	ContentTypeCSV = "text/csv; charset=utf-8"
	// ContentTypeADMD is the media type of the admd XML encoding.
	ContentTypeADMD = "application/xml; charset=utf-8"
)

// CSVHeader is the exact v1 header row (no trailing newline).
const CSVHeader = "community,label,srcIP,srcPort,dstIP,dstPort,heuristic,category,packets,flows,score"

// WriteCSV emits the labeling reports in the MAWILab database CSV format:
// one row per community with its taxonomy label, best rule 4-tuple,
// heuristic class and category, sizes and combiner score.
func WriteCSV(w io.Writer, reports []core.CommunityReport) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for _, rep := range reports {
		src, sport, dst, dport := BestRule(rep)
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%s,%s,%s,%s,%d,%d,%.4f\n",
			rep.Community, rep.Label, src, sport, dst, dport,
			rep.Class, rep.Category, rep.Packets, rep.Flows, rep.Decision.Score); err != nil {
			return err
		}
	}
	return nil
}

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
	// Value is the heuristic category (Table 1), e.g. "SMB" or "Unknown".
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

// admdNamespace is the admd namespace URI used by MAWILab documents.
const admdNamespace = "http://www.fukuda-lab.org/mawilab/admd"

// WriteADMD emits the labeling reports as an admd XML document, the format
// of the published MAWILab database. Benign traffic is implicit (anything
// not covered), as in the published database. ix is the index the reports
// were labeled on and supplies every anomaly's time span; a nil ix omits
// the spans — the store re-encodes from reports without the packets.
func WriteADMD(w io.Writer, traceName string, ix *trace.Index, reports []core.CommunityReport) error {
	doc := Document{Namespace: admdNamespace, Trace: traceName}
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
		if rep.Packets > 0 && ix != nil {
			a.From, a.To = spanOf(ix)
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
// its first packet's second — and closes on the last packet, split from its
// integer microsecond timestamp: the seconds column's fraction, scaled back
// by 1e6, can land a microsecond short.
func spanOf(ix *trace.Index) (from, to TimeRef) {
	if n := ix.Len(); n > 0 {
		first, last := ix.TS[0], ix.TS[n-1]
		from = TimeRef{Sec: first / 1e6}
		to = TimeRef{Sec: last / 1e6, Usec: last % 1e6}
	}
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

// BestRule returns the community's best-rule 4-tuple exactly as the CSV
// schema renders it: the first mined rule's (srcIP, srcPort, dstIP,
// dstPort) with "*" for wildcards, and all-wildcards for a community with
// no rules. It is the one tuple derivation shared by the CSV encoder and
// the daemon's stored community metadata, so a stored tuple always matches
// the served CSV row.
func BestRule(rep core.CommunityReport) (src, sport, dst, dport string) {
	var best apriori.Rule
	if len(rep.Rules) > 0 {
		best = rep.Rules[0]
	}
	f := best.Fields()
	return f[apriori.FieldSrcIP], f[apriori.FieldSrcPort], f[apriori.FieldDstIP], f[apriori.FieldDstPort]
}
