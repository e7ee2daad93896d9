package trace

import "fmt"

// FlowKey identifies a unidirectional flow: the classic 5-tuple. It is a
// comparable value type, so it can be used directly as a map key and
// compared with ==, following the gopacket Flow idiom.
type FlowKey struct {
	Src     IPv4
	Dst     IPv4
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Flow returns the unidirectional flow key of the packet.
func (p *Packet) Flow() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Canonical returns the bidirectional representative of the flow: of the two
// directions, the lexicographically smaller (Src, SrcPort) endpoint comes
// first. Both directions of a conversation map to the same canonical key —
// the "bidirectional flow" of the paper's traffic granularities, which trace
// summaries count by it.
func (k FlowKey) Canonical() FlowKey {
	if k.Src > k.Dst || (k.Src == k.Dst && k.SrcPort > k.DstPort) {
		return k.Reverse()
	}
	return k
}

// String renders the flow key like "tcp 1.2.3.4:80>5.6.7.8:1234".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Granularity selects the unit of traffic used when two alarms are compared
// by the similarity estimator (paper §2.1.1, Fig. 1).
type Granularity uint8

// The three traffic granularities evaluated in the paper.
const (
	// GranPacket compares alarms by the exact packets they designate.
	GranPacket Granularity = iota
	// GranUniFlow compares alarms by unidirectional 5-tuple flows.
	GranUniFlow
	// GranBiFlow compares alarms by bidirectional conversations.
	GranBiFlow
)

// String names the granularity as in the paper's figures.
func (g Granularity) String() string {
	switch g {
	case GranPacket:
		return "packet"
	case GranUniFlow:
		return "uniflow"
	case GranBiFlow:
		return "biflow"
	default:
		return fmt.Sprintf("granularity(%d)", uint8(g))
	}
}
