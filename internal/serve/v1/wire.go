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
// dialect of the published MAWILab database, as encoded by internal/admd:
// one <anomaly> element per non-benign community with taxonomy label,
// heuristic value, time span and slice filters.
//
// Schema changes are additive-only within a version; a breaking layout
// change mints a v2 package and a new endpoint, never a silent edit here.
package wirev1

import (
	"fmt"
	"io"

	"mawilab/internal/admd"
	"mawilab/internal/apriori"
	"mawilab/internal/core"
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

// WriteADMD emits the labeling reports as an admd XML document, the format
// of the published MAWILab database. span supplies the trace time bounds —
// a *trace.Trace or *trace.Index, whichever the caller holds — and may be
// nil (time spans are then omitted; pass a nil interface, not a typed nil).
func WriteADMD(w io.Writer, traceName string, span admd.TimeSpan, reports []core.CommunityReport) error {
	return admd.Encode(w, traceName, span, reports)
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
