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

// String renders a short summary.
func (t *Trace) String() string {
	return fmt.Sprintf("trace %s: %d packets, %.1fs", t.Name, len(t.Packets), t.Duration())
}
