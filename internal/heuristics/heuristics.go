// Package heuristics implements Table 1 of the paper: simple port/flag/ICMP
// rules that label a community's traffic as "Attack", "Special" or
// "Unknown". The heuristics deliberately look only at TCP flags, ICMP and
// port numbers so that the evaluation stays independent of the mechanisms
// of the combined detectors.
package heuristics

import (
	"mawilab/internal/trace"
)

// Class is the coarse Table 1 label.
type Class uint8

// The three classes of Table 1.
const (
	Unknown Class = iota
	Attack
	Special
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Attack:
		return "Attack"
	case Special:
		return "Special"
	default:
		return "Unknown"
	}
}

// Category is the detailed Table 1 row that fired.
type Category uint8

// Categories, in Table 1 order.
const (
	CatUnknown Category = iota
	CatSasser
	CatRPC
	CatSMB
	CatPing
	CatOtherAttack
	CatNetBIOS
	CatHTTP
	CatWellKnown // dns, ftp, ssh
)

// String names the category as in Table 1.
func (c Category) String() string {
	switch c {
	case CatSasser:
		return "Sasser"
	case CatRPC:
		return "RPC"
	case CatSMB:
		return "SMB"
	case CatPing:
		return "Ping"
	case CatOtherAttack:
		return "Other"
	case CatNetBIOS:
		return "NetBIOS"
	case CatHTTP:
		return "Http"
	case CatWellKnown:
		return "dns-ftp-ssh"
	default:
		return "Unknown"
	}
}

// Class returns the coarse class of a category.
func (c Category) Class() Class {
	switch c {
	case CatSasser, CatRPC, CatSMB, CatPing, CatOtherAttack, CatNetBIOS:
		return Attack
	case CatHTTP, CatWellKnown:
		return Special
	default:
		return Unknown
	}
}

// Summary aggregates the observable features of one community's traffic,
// all that Table 1 needs: packet count, per-port presence, flag ratios and
// the ICMP share.
type Summary struct {
	Packets   int
	ICMP      int
	TCPPkts   int
	SYN       int // TCP packets with SYN set
	RST       int
	FIN       int
	PortPkts  map[portProto]int // packets touching (port, proto) as src or dst
	TotalSize int64
}

type portProto struct {
	port  uint16
	proto trace.Proto
}

// observe folds one packet's Table 1 features into the summary.
func (s *Summary) observe(proto trace.Proto, flags trace.TCPFlags, srcPort, dstPort, length uint16) {
	s.Packets++
	s.TotalSize += int64(length)
	switch proto {
	case trace.ICMP:
		s.ICMP++
	case trace.TCP:
		s.TCPPkts++
		if flags.Has(trace.SYN) {
			s.SYN++
		}
		if flags.Has(trace.RST) {
			s.RST++
		}
		if flags.Has(trace.FIN) {
			s.FIN++
		}
		s.PortPkts[portProto{srcPort, trace.TCP}]++
		s.PortPkts[portProto{dstPort, trace.TCP}]++
	case trace.UDP:
		s.PortPkts[portProto{srcPort, trace.UDP}]++
		s.PortPkts[portProto{dstPort, trace.UDP}]++
	}
}

// Summarize builds a Summary from a set of packet indices, reading the
// shared index's protocol/flag/port/length columns — Table 1 never needs
// the full packet rows.
func Summarize(ix *trace.Index, packetIdx []int) *Summary {
	s := &Summary{PortPkts: make(map[portProto]int)}
	for _, i := range packetIdx {
		s.observe(ix.Proto[i], ix.Flags[i], ix.SrcPort[i], ix.DstPort[i], ix.PktLen[i])
	}
	return s
}

// portShare returns the fraction of packets touching (port, proto).
func (s *Summary) portShare(port uint16, proto trace.Proto) float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.PortPkts[portProto{port, proto}]) / float64(s.Packets)
}

// onPort reports whether a substantial share (≥ dominantShare) of the
// traffic touches the given port. "Traffic on port X" in Table 1 is read as
// the port dominating the community.
const dominantShare = 0.5

func (s *Summary) onPort(port uint16, proto trace.Proto) bool {
	return s.portShare(port, proto) >= dominantShare
}

// synRatio returns SYN packets over TCP packets (0 if no TCP).
func (s *Summary) synRatio() float64 {
	if s.TCPPkts == 0 {
		return 0
	}
	return float64(s.SYN) / float64(s.TCPPkts)
}

// flagRatio returns the dominant single control flag's count — the max of
// SYN, RST and FIN, not their sum — over TCP packets (0 if no TCP). This is
// the Table 1 reading of "(SYN|RST|FIN)/pkts": a flood repeats one flag, so
// the dominant-flag share flags it, while an ordinary conversation's mixed
// SYN/FIN/RST traffic cannot sum its way over the 0.5 attack threshold.
func (s *Summary) flagRatio() float64 {
	if s.TCPPkts == 0 {
		return 0
	}
	m := s.SYN
	if s.RST > m {
		m = s.RST
	}
	if s.FIN > m {
		m = s.FIN
	}
	return float64(m) / float64(s.TCPPkts)
}

// icmpShare returns the ICMP fraction of all packets.
func (s *Summary) icmpShare() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.ICMP) / float64(s.Packets)
}

// wellKnownService reports whether the dominant traffic is on one of the
// http/ftp/ssh/dns service ports used by the "Other attacks" and "Special"
// rows.
func (s *Summary) onHTTP() bool {
	return s.portShare(80, trace.TCP)+s.portShare(8080, trace.TCP) >= dominantShare
}

func (s *Summary) onWellKnown() bool {
	sum := s.portShare(20, trace.TCP) + s.portShare(21, trace.TCP) +
		s.portShare(22, trace.TCP) + s.portShare(53, trace.TCP) + s.portShare(53, trace.UDP)
	return sum >= dominantShare
}

// Classify applies Table 1 top to bottom and returns the first category
// that fires, with its class.
func (s *Summary) Classify() (Class, Category) {
	if s.Packets == 0 {
		return Unknown, CatUnknown
	}
	// Attack rows. The Sasser ports are read jointly, as worm aftermath
	// alternates between the ftp backdoor (5554) and the shell (9898).
	sasserShare := s.portShare(1023, trace.TCP) + s.portShare(5554, trace.TCP) + s.portShare(9898, trace.TCP)
	if sasserShare >= dominantShare {
		return Attack, CatSasser
	}
	if s.onPort(135, trace.TCP) {
		return Attack, CatRPC
	}
	if s.onPort(445, trace.TCP) {
		return Attack, CatSMB
	}
	if s.icmpShare() >= 0.5 && s.ICMP > 7 {
		return Attack, CatPing
	}
	if s.Packets > 7 {
		if s.flagRatio() >= 0.5 && s.TCPPkts*2 >= s.Packets {
			return Attack, CatOtherAttack
		}
		if (s.onHTTP() || s.onWellKnown()) && s.synRatio() >= 0.3 {
			return Attack, CatOtherAttack
		}
	}
	if s.onPort(137, trace.UDP) || s.onPort(139, trace.TCP) {
		return Attack, CatNetBIOS
	}
	// Special rows.
	if s.onHTTP() && s.synRatio() < 0.3 {
		return Special, CatHTTP
	}
	if s.onWellKnown() && s.synRatio() < 0.3 {
		return Special, CatWellKnown
	}
	return Unknown, CatUnknown
}

// ClassifyPackets is a convenience wrapper: summarize then classify.
func ClassifyPackets(ix *trace.Index, packetIdx []int) (Class, Category) {
	return Summarize(ix, packetIdx).Classify()
}
