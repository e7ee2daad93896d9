package trace

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
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

// Start returns the timestamp of the first packet in seconds. An empty trace
// starts at 0.
func (t *Trace) Start() float64 {
	if len(t.Packets) == 0 {
		return 0
	}
	return t.Packets[0].Seconds()
}

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

// Sorted reports whether packets are in non-decreasing timestamp order.
func (t *Trace) Sorted() bool {
	for i := 1; i < len(t.Packets); i++ {
		if t.Packets[i].TS < t.Packets[i-1].TS {
			return false
		}
	}
	return true
}

// Window returns the index range [lo,hi) of packets with timestamps in
// [from,to) seconds. The trace must be sorted.
func (t *Trace) Window(from, to float64) (lo, hi int) {
	fromTS := int64(from * 1e6)
	toTS := int64(to * 1e6)
	lo = sort.Search(len(t.Packets), func(i int) bool { return t.Packets[i].TS >= fromTS })
	hi = sort.Search(len(t.Packets), func(i int) bool { return t.Packets[i].TS >= toTS })
	return lo, hi
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

// Digest returns a hex SHA-256 over every packet field in order: two traces
// share a digest iff they are byte-identical under the trace model. It is
// the canonical fingerprint for the repo's golden fixtures and determinism
// tests — one digest definition, so a future Packet field can never be
// hashed by one fixture suite and silently ignored by another.
func (t *Trace) Digest() string {
	h := sha256.New()
	var buf [24]byte
	for i := range t.Packets {
		p := &t.Packets[i]
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.TS))
		binary.LittleEndian.PutUint32(buf[8:], uint32(p.Src))
		binary.LittleEndian.PutUint32(buf[12:], uint32(p.Dst))
		binary.LittleEndian.PutUint16(buf[16:], p.SrcPort)
		binary.LittleEndian.PutUint16(buf[18:], p.DstPort)
		binary.LittleEndian.PutUint16(buf[20:], p.Len)
		buf[22] = byte(p.Proto)
		buf[23] = byte(p.Flags)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// String renders a short summary.
func (t *Trace) String() string {
	return fmt.Sprintf("trace %s: %d packets, %.1fs", t.Name, len(t.Packets), t.Duration())
}
