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

// Summary aggregates the observable features of one community's traffic,
// all that Table 1 needs: packet count, flag ratios, the ICMP share and, for
// the fourteen (port, protocol) pairs a Table 1 row names, how many packets
// touch each. Packets on any other port count toward Packets and the
// protocol totals only: no row can ask about them, so nothing is kept.
type Summary struct {
	Packets   int
	ICMP      int
	TCPPkts   int
	SYN       int // TCP packets with SYN set
	RST       int
	FIN       int
	TotalSize int64

	ports [numPortSlots]int // packets touching each Table 1 (port, proto) as src or dst
}

// numPortSlots is the number of (port, protocol) pairs Table 1 reads.
const numPortSlots = 14

// portSlot returns the tally slot of a Table 1 (port, protocol) pair, or -1
// for every other pair — a packet on an unlisted port must land in no slot.
func portSlot(port uint16, proto trace.Proto) int {
	switch proto {
	case trace.TCP:
		switch port {
		case 20:
			return 0
		case 21:
			return 1
		case 22:
			return 2
		case 53:
			return 3
		case 80:
			return 4
		case 135:
			return 5
		case 139:
			return 6
		case 445:
			return 7
		case 1023:
			return 8
		case 5554:
			return 9
		case 8080:
			return 10
		case 9898:
			return 11
		}
	case trace.UDP:
		switch port {
		case 53:
			return 12
		case 137:
			return 13
		}
	}
	return -1
}

// touch counts one packet end on (port, proto) if Table 1 reads that pair.
func (s *Summary) touch(port uint16, proto trace.Proto) {
	if slot := portSlot(port, proto); slot >= 0 {
		s.ports[slot]++
	}
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
		s.touch(srcPort, trace.TCP)
		s.touch(dstPort, trace.TCP)
	case trace.UDP:
		s.touch(srcPort, trace.UDP)
		s.touch(dstPort, trace.UDP)
	}
}

// Summarize builds a Summary from a set of packet indices, reading the
// shared index's protocol/flag/port/length columns — Table 1 never needs
// the full packet rows.
func Summarize(ix *trace.Index, packetIdx []int) *Summary {
	s := &Summary{}
	for _, i := range packetIdx {
		s.observe(ix.Proto[i], ix.Flags[i], ix.SrcPort[i], ix.DstPort[i], ix.PktLen[i])
	}
	return s
}

// portShare returns the fraction of packets touching (port, proto), one of
// the pairs Table 1 reads.
func (s *Summary) portShare(port uint16, proto trace.Proto) float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.ports[portSlot(port, proto)]) / float64(s.Packets)
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
