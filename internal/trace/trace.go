package trace

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// Trace is an in-memory packet trace: one MAWI-style capture interval. The
// zero value is an empty trace ready for Append.
type Trace struct {
	// Date identifies the capture day in the archive (UTC midnight).
	Date time.Time
	// Name is a human-readable identifier, e.g. "2004-05-03".
	Name string
	// Packets are stored in non-decreasing timestamp order once Sort has
	// been called; generators are expected to emit nearly-sorted data.
	Packets []Packet
}

// Append adds a packet to the trace.
func (t *Trace) Append(p Packet) { t.Packets = append(t.Packets, p) }

// Len returns the number of packets.
func (t *Trace) Len() int { return len(t.Packets) }

// Duration returns the trace duration in seconds (timestamp of the last
// packet). An empty trace has duration 0.
func (t *Trace) Duration() float64 {
	if len(t.Packets) == 0 {
		return 0
	}
	return t.Packets[len(t.Packets)-1].Seconds()
}

// Sort orders packets by timestamp (stable, so equal-timestamp generator
// order is preserved and runs stay reproducible).
func (t *Trace) Sort() {
	slices.SortStableFunc(t.Packets, func(a, b Packet) int { return cmp.Compare(a.TS, b.TS) })
}

// Stats summarizes a trace for reports and sanity checks.
type Stats struct {
	Packets   int
	Bytes     int64
	Flows     int // unique unidirectional flows
	BiFlows   int // unique bidirectional conversations
	SrcHosts  int
	DstHosts  int
	TCPShare  float64 // fraction of packets
	UDPShare  float64
	ICMPShare float64
	Duration  float64 // seconds
}

// ComputeStats scans the trace once and returns its summary.
func (t *Trace) ComputeStats() Stats {
	var s Stats
	s.Packets = len(t.Packets)
	s.Duration = t.Duration()
	flows := make(map[FlowKey]struct{})
	biflows := make(map[FlowKey]struct{})
	srcs := make(map[IPv4]struct{})
	dsts := make(map[IPv4]struct{})
	var tcp, udp, icmp int
	for i := range t.Packets {
		p := &t.Packets[i]
		s.Bytes += int64(p.Len)
		flows[p.Flow()] = struct{}{}
		biflows[p.Flow().Canonical()] = struct{}{}
		srcs[p.Src] = struct{}{}
		dsts[p.Dst] = struct{}{}
		switch p.Proto {
		case TCP:
			tcp++
		case UDP:
			udp++
		case ICMP:
			icmp++
		}
	}
	s.Flows = len(flows)
	s.BiFlows = len(biflows)
	s.SrcHosts = len(srcs)
	s.DstHosts = len(dsts)
	if s.Packets > 0 {
		s.TCPShare = float64(tcp) / float64(s.Packets)
		s.UDPShare = float64(udp) / float64(s.Packets)
		s.ICMPShare = float64(icmp) / float64(s.Packets)
	}
	return s
}

// String renders a short summary.
func (t *Trace) String() string {
	return fmt.Sprintf("trace %s: %d packets, %.1fs", t.Name, len(t.Packets), t.Duration())
}
