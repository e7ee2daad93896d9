package trace

import (
	"strconv"
	"strings"
)

// Filter selects packets by exact match on any subset of the 4-tuple plus
// protocol, over an optional time interval. It is the common language in
// which every detector expresses what traffic an alarm designates (paper
// §6: "any traffic annotations containing at least two timestamps and one
// traffic feature").
//
// A nil pointer field means "any value". The zero Filter matches everything.
type Filter struct {
	Src     *IPv4
	Dst     *IPv4
	SrcPort *uint16
	DstPort *uint16
	Proto   *Proto
	// From/To bound the match interval in microseconds since trace start,
	// the unit of Packet.TS. To <= From disables the time bound.
	From, To int64
}

// NewFilter returns an empty (match-all) filter. Builders below narrow it.
func NewFilter() Filter { return Filter{} }

// WithSrc narrows the filter to one source address.
func (f Filter) WithSrc(ip IPv4) Filter { f.Src = &ip; return f }

// WithDst narrows the filter to one destination address.
func (f Filter) WithDst(ip IPv4) Filter { f.Dst = &ip; return f }

// WithSrcPort narrows the filter to one source port.
func (f Filter) WithSrcPort(p uint16) Filter { f.SrcPort = &p; return f }

// WithDstPort narrows the filter to one destination port.
func (f Filter) WithDstPort(p uint16) Filter { f.DstPort = &p; return f }

// WithProto narrows the filter to one transport protocol.
func (f Filter) WithProto(pr Proto) Filter { f.Proto = &pr; return f }

// WithInterval bounds the filter to [from,to) microseconds.
func (f Filter) WithInterval(from, to int64) Filter { f.From, f.To = from, to; return f }

// TimeBounded reports whether the filter restricts the match interval.
func (f Filter) TimeBounded() bool { return f.To > f.From }

// Match reports whether the packet satisfies every constrained field.
func (f Filter) Match(p *Packet) bool {
	if f.TimeBounded() && (p.TS < f.From || p.TS >= f.To) {
		return false
	}
	if f.Src != nil && p.Src != *f.Src {
		return false
	}
	if f.Dst != nil && p.Dst != *f.Dst {
		return false
	}
	if f.SrcPort != nil && p.SrcPort != *f.SrcPort {
		return false
	}
	if f.DstPort != nil && p.DstPort != *f.DstPort {
		return false
	}
	if f.Proto != nil && p.Proto != *f.Proto {
		return false
	}
	return true
}

// MatchFlow reports whether a whole flow satisfies the header constraints
// (time bounds are ignored, since a flow aggregates packets over time).
func (f Filter) MatchFlow(k FlowKey) bool {
	if f.Src != nil && k.Src != *f.Src {
		return false
	}
	if f.Dst != nil && k.Dst != *f.Dst {
		return false
	}
	if f.SrcPort != nil && k.SrcPort != *f.SrcPort {
		return false
	}
	if f.DstPort != nil && k.DstPort != *f.DstPort {
		return false
	}
	if f.Proto != nil && k.Proto != *f.Proto {
		return false
	}
	return true
}

// String renders the filter as a 4-tuple rule in the paper's notation,
// e.g. "<1.2.3.4, 80, *, *>" with an optional time suffix in seconds.
func (f Filter) String() string {
	var b strings.Builder
	b.WriteByte('<')
	writeOpt := func(present bool, s string) {
		if present {
			b.WriteString(s)
		} else {
			b.WriteByte('*')
		}
	}
	writeOpt(f.Src != nil, ipString(f.Src))
	b.WriteString(", ")
	writeOpt(f.SrcPort != nil, portString(f.SrcPort))
	b.WriteString(", ")
	writeOpt(f.Dst != nil, ipString(f.Dst))
	b.WriteString(", ")
	writeOpt(f.DstPort != nil, portString(f.DstPort))
	b.WriteByte('>')
	if f.Proto != nil {
		b.WriteByte('/')
		b.WriteString(f.Proto.String())
	}
	if f.TimeBounded() {
		b.WriteString(" @[")
		b.WriteString(strconv.FormatFloat(float64(f.From)/1e6, 'f', 1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(float64(f.To)/1e6, 'f', 1, 64))
		b.WriteByte(')')
	}
	return b.String()
}

func ipString(ip *IPv4) string {
	if ip == nil {
		return "*"
	}
	return ip.String()
}

func portString(p *uint16) string {
	if p == nil {
		return "*"
	}
	return strconv.Itoa(int(*p))
}
