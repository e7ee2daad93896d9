package trace

import (
	"fmt"
	"math"
)

// TimeAxis cuts an index's span into fixed-width time bins. It is the one
// place the detectors turn a timestamp into a bin and a bin back into an
// interval: build one per Prepare with NewTimeAxis and read nothing else.
//
// Bins count from time zero and the span is the last packet's timestamp
// (Index.Duration), so a sealed segment late in a stream sits behind a run of
// empty bins: First of them. A detector sizes its working set by Bins−First,
// the bins its packets can occupy, and carries the empty ones as a count.
// Only NewTimeAxis sets First.
type TimeAxis struct {
	// Width is the bin width in seconds, positive and finite.
	Width float64
	// Bins is ceil(Span/Width); 0 for an empty span.
	Bins int
	// Span is the time the axis covers, in seconds: the index's Duration.
	Span float64
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
// seconds. It rejects a width that is not positive and finite, and one that
// spreads the packets over more than maxTimeBins bins.
//
// The bound counts from the first packet's bin, not from bin 0, so it limits
// a stream segment's own span and not how far into the stream it lies: a
// segment late in a long stream is accepted (the count from bin 0 need only
// fit an int32, so no size derived from it overflows). For an index whose
// first packet is at 0 s, as in every decoded pcap or generated day, First
// is 0 and the two counts are the same.
func NewTimeAxis(ix *Index, width float64) (TimeAxis, error) {
	if !(width > 0) || math.IsInf(width, 1) {
		return TimeAxis{}, fmt.Errorf("trace: bin width %v is not positive and finite", width)
	}
	span := ix.Duration()
	bins := math.Ceil(span / width) // bounded as a float: span/1e-300 overflows an int
	if ix.Len() > 0 && !(bins-math.Floor(ix.Seconds[0]/width) <= maxTimeBins && bins < math.MaxInt32) {
		return TimeAxis{}, fmt.Errorf("trace: bin width %v spreads packets at %v–%v s over more than %d bins", width, ix.Seconds[0], span, maxTimeBins)
	}
	a := TimeAxis{Width: width, Bins: int(bins), Span: span}
	if a.Bins > 0 {
		a.first = a.Bin(ix.Seconds[0])
	}
	return a, nil
}

// First returns the bin of the first packet, 0 for an empty index: no packet
// lies in a bin before it, so bins 0 through First−1 are empty.
func (a TimeAxis) First() int { return a.first }

// Bin returns the bin of a timestamp in seconds, clamped to the last bin: a
// packet exactly on Bins·Width — the last one, when the span is a whole
// number of bins — falls into bin Bins−1, outside that bin's Interval. It
// needs Bins > 0: an axis whose packets all sit at 0 s has no bin to return.
func (a TimeAxis) Bin(sec float64) int { return min(int(sec/a.Width), a.Bins-1) }

// Interval returns the seconds [from, to) that bins first through last cover.
func (a TimeAxis) Interval(first, last int) (from, to float64) {
	return float64(first) * a.Width, float64(last+1) * a.Width
}
