package trace

import (
	"fmt"
	"math"
)

// TimeAxis cuts an index's span into fixed-width time bins. It is the one
// place the detectors turn a timestamp into a bin and a bin back into an
// interval: build one per Prepare with NewTimeAxis and read nothing else.
// Both directions are integer microseconds, as the index's TS column is.
//
// Bins count from time zero and the span ends at the last packet's timestamp,
// so a sealed segment late in a stream sits behind a run of empty bins: First
// of them. A detector sizes its working set by Bins−First, the bins its
// packets can occupy, and carries the empty ones as a count. Only NewTimeAxis
// sets First.
type TimeAxis struct {
	// Width is the bin width in microseconds, positive.
	Width int64
	// Bins is ceil(last/Width), last the last packet's timestamp.
	Bins int
	// first is the bin of the first packet; see First.
	first int
}

// maxTimeBins bounds the bins an axis may spread its packets over, Bins−First.
// PCA, Gamma and Hough size their working set by that count — at this bound
// PCA holds ~330 MB (four 32-column float matrices and a residual buffer),
// Hough's accumulator ~100 MB, Gamma ~130 MB — so a trace whose packets are
// stamped years apart is an error, not an allocation proportional to its
// span. KL still keeps per-bin arrays from bin 0, ~15 MB at this bound. 24 h
// at the finest standard width (0.5 s) is 172 800 bins.
const maxTimeBins = 1 << 18

// NewTimeAxis returns the axis that cuts ix's span into bins of width
// microseconds. It rejects a width that is not positive, and one that spreads
// the packets over more than maxTimeBins bins.
//
// The bound counts from the first packet's bin, not from bin 0, so it limits
// a stream segment's own span and not how far into the stream it lies: a
// segment late in a long stream is accepted (the count from bin 0 need only
// fit an int32, so no size derived from it overflows). For an index whose
// first packet is at 0 s, as in every decoded pcap or generated day, First
// is 0 and the two counts are the same.
func NewTimeAxis(ix *Index, width int64) (TimeAxis, error) {
	if width <= 0 {
		return TimeAxis{}, fmt.Errorf("trace: bin width %d µs is not positive", width)
	}
	var first, last int64 // an empty index spans no bins
	if n := ix.Len(); n > 0 {
		first, last = ix.TS[0], ix.TS[n-1]
	}
	bins := last / width // the ceiling without last+width−1, which can overflow
	if last%width != 0 {
		bins++
	}
	if bins-first/width > maxTimeBins || bins >= math.MaxInt32 {
		return TimeAxis{}, fmt.Errorf("trace: bin width %d µs spreads packets at %d–%d µs over more than %d bins", width, first, last, maxTimeBins)
	}
	a := TimeAxis{Width: width, Bins: int(bins)}
	if a.Bins > 0 {
		a.first = a.Bin(first)
	}
	return a, nil
}

// First returns the bin of the first packet, 0 for an empty index: no packet
// lies in a bin before it, so bins 0 through First−1 are empty.
func (a TimeAxis) First() int { return a.first }

// Bin returns the bin of a timestamp in µs, clamped to the last bin: a packet
// exactly on Bins·Width — the last one, when the span is a whole number of
// bins — falls into bin Bins−1, outside that bin's Interval. It needs
// Bins > 0: an axis whose packets all sit at 0 s has no bin to return.
func (a TimeAxis) Bin(ts int64) int { return int(min(ts/a.Width, int64(a.Bins)-1)) }

// Interval returns the µs [from, to) that bins first through last cover.
func (a TimeAxis) Interval(first, last int) (from, to int64) {
	return int64(first) * a.Width, int64(last+1) * a.Width
}
