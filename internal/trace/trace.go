package trace

import (
	"fmt"
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

// Sort orders packets by timestamp, stably: packets that share a timestamp
// keep the order they were appended in, so a generator's runs stay
// reproducible. Any int64 timestamp sorts, negative ones first.
//
// It is a byte radix sort, least significant byte first, on the timestamp
// with its sign bit flipped, so that every int64 orders as an unsigned word:
// time linear in the packets, one counting pass per byte. Bytes every
// timestamp shares are skipped (one OR/AND pass finds them: a 10-minute day
// in microseconds varies in four of its eight), and the rows move through one
// scratch slice. Rows that are already sorted return after that first pass
// and allocate nothing.
func (t *Trace) Sort() {
	a := t.Packets
	if len(a) < 2 {
		return
	}
	or, and, sorted := uint64(a[0].TS), uint64(a[0].TS), true
	for i := 1; i < len(a); i++ {
		k := uint64(a[i].TS)
		or |= k
		and &= k
		sorted = sorted && a[i-1].TS <= a[i].TS
	}
	if sorted {
		return
	}
	const signBit = 1 << 63
	src, dst := a, make([]Packet, len(a))
	vary := or ^ and
	for shift := uint(0); vary>>shift != 0; shift += 8 {
		if vary>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for i := range src {
			next[(uint64(src[i].TS)^signBit)>>shift&0xff]++
		}
		pos := 0
		for b, c := range next {
			next[b] = pos
			pos += c
		}
		for i := range src {
			b := (uint64(src[i].TS) ^ signBit) >> shift & 0xff
			dst[next[b]] = src[i]
			next[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// String renders a short summary.
func (t *Trace) String() string {
	return fmt.Sprintf("trace %s: %d packets, %.1fs", t.Name, len(t.Packets), t.Duration())
}
