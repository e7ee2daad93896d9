package trace

import (
	"fmt"
	"strconv"
)

// Proto identifies the transport protocol of a packet. Values match the
// IPv4 protocol numbers so traces round-trip through pcap unchanged.
type Proto uint8

// Transport protocols understood by the pipeline. Anything else is carried
// as its raw IP protocol number and matched only by equality.
const (
	ICMP Proto = 1
	TCP  Proto = 6
	UDP  Proto = 17
)

// String renders the protocol using its conventional lowercase name.
func (p Proto) String() string {
	switch p {
	case ICMP:
		return "icmp"
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return "proto" + strconv.Itoa(int(p))
	}
}

// TCPFlags is the TCP control-flag byte (FIN..CWR). For non-TCP packets the
// field is zero.
type TCPFlags uint8

// Individual TCP control flags.
const (
	FIN TCPFlags = 1 << iota
	SYN
	RST
	PSH
	ACK
	URG
	ECE
	CWR
)

// Has reports whether every flag in mask is set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders the set flags in the usual order, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	if f == 0 {
		return "-"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FIN, "FIN"}, {SYN, "SYN"}, {RST, "RST"}, {PSH, "PSH"},
		{ACK, "ACK"}, {URG, "URG"}, {ECE, "ECE"}, {CWR, "CWR"},
	}
	out := make([]byte, 0, 16)
	for _, n := range names {
		if f&n.bit != 0 {
			if len(out) > 0 {
				out = append(out, '|')
			}
			out = append(out, n.name...)
		}
	}
	return string(out)
}

// Packet is one captured packet header. The layout is deliberately compact
// (24 bytes) because experiment harnesses hold tens of millions of packets
// in memory at once.
//
// TS is the capture timestamp in microseconds since the start of the trace.
// For ICMP packets SrcPort carries the ICMP type and DstPort the ICMP code,
// mirroring how flow tools (and the MAWI tooling) fold ICMP into the 5-tuple.
type Packet struct {
	TS      int64 // microseconds since trace start
	Src     IPv4
	Dst     IPv4
	SrcPort uint16
	DstPort uint16
	Len     uint16 // IP length in bytes
	Proto   Proto
	Flags   TCPFlags
}

// Seconds returns the timestamp as floating-point seconds since trace start.
func (p *Packet) Seconds() float64 { return float64(p.TS) / 1e6 }

// String renders the packet one-line, tcpdump-style.
func (p *Packet) String() string {
	return fmt.Sprintf("%.6f %s %s:%d > %s:%d len=%d %s",
		p.Seconds(), p.Proto, p.Src, p.SrcPort, p.Dst, p.DstPort, p.Len, p.Flags)
}
