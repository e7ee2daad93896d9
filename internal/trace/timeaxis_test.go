package trace

import (
	"math"
	"testing"
)

// TestTimeAxisEmptyIndex: an empty index has an empty span and no bins at
// any valid width.
func TestTimeAxisEmptyIndex(t *testing.T) {
	ax, err := NewTimeAxis(NewIndex(&Trace{}), 0.5)
	if err != nil || ax != (TimeAxis{Width: 0.5}) {
		t.Fatalf("empty index: %+v, %v", ax, err)
	}
}

// TestTimeAxisBins pins the bin count, the packet → bin map with its clamp,
// and the bin → interval map on a trace whose last packet sits exactly on
// a bin edge at width 1 and inside a bin at width 4.
func TestTimeAxisBins(t *testing.T) {
	ix := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: 2_500_000}, {TS: 29_999_999}, {TS: 30_000_000}}})
	cases := []struct {
		width float64
		bins  int
		of    []int // Bin of each packet
	}{
		{1, 30, []int{0, 2, 29, 29}}, // 30 s is on the edge: clamped into bin 29
		{4, 8, []int{0, 0, 7, 7}},
		{0.5, 60, []int{0, 5, 59, 59}},
		{45, 1, []int{0, 0, 0, 0}},
	}
	for _, tc := range cases {
		ax, err := NewTimeAxis(ix, tc.width)
		if err != nil {
			t.Fatalf("width %v: %v", tc.width, err)
		}
		if ax.Width != tc.width || ax.Bins != tc.bins || ax.Span != 30 || ax.First() != 0 {
			t.Errorf("width %v: axis %+v, want %d bins over 30 s", tc.width, ax, tc.bins)
		}
		for pi, sec := range ix.Seconds {
			if got := ax.Bin(sec); got != tc.of[pi] {
				t.Errorf("width %v: Bin(%v) = %d, want %d", tc.width, sec, got, tc.of[pi])
			}
		}
	}

	ax, _ := NewTimeAxis(ix, 1)
	if from, to := ax.Interval(2, 4); from != 2 || to != 5 {
		t.Errorf("Interval(2, 4) = [%v, %v), want [2, 5)", from, to)
	}
	// The clamped packet is in bin 29 but outside that bin's window.
	if lo, hi := ix.Window(ax.Interval(29, 29)); lo != 2 || hi != 3 {
		t.Errorf("Window(Interval(29, 29)) = [%d, %d), want [2, 3)", lo, hi)
	}
}

// TestTimeAxisRejects: a width that is not positive and finite is an error,
// and so is one cutting the span into more than maxTimeBins bins — bounded as
// a float, so 30 s at 1e-300 s (3e301 bins, past any int) and at the smallest
// subnormal (+Inf bins) fail rather than wrap. A span of exactly maxTimeBins
// bins is accepted, and so is the daemon's longest admissible trace, 24 h, at
// the finest standard width, 0.5 s.
func TestTimeAxisRejects(t *testing.T) {
	ix := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: 30_000_000}}})
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, 5e-324, 30.0 / (maxTimeBins + 1)} {
		if ax, err := NewTimeAxis(ix, w); err == nil {
			t.Errorf("width %v accepted: %+v", w, ax)
		}
	}
	long := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: maxTimeBins * 1e6}}})
	if ax, err := NewTimeAxis(long, 1); err != nil || ax.Bins != maxTimeBins {
		t.Errorf("%d bins of 1 s: %+v, %v", maxTimeBins, ax, err)
	}
	if _, err := NewTimeAxis(long, 0.999); err == nil {
		t.Errorf("%d s at 0.999 s accepted", maxTimeBins)
	}
	day := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: 86400e6}}})
	if ax, err := NewTimeAxis(day, 0.5); err != nil || ax.Bins != 172800 {
		t.Errorf("24 h at 0.5 s: %+v, %v", ax, err)
	}
}

// TestTimeAxisBoundsSegmentSpan: the bound counts the bins from the first
// packet's, First, so a 15 s stream segment 40 h in is accepted at 0.5 s
// although its axis, counted from 0 s, has 288 030 bins; 0 s to 40 h is refused, and
// so is a late segment whose own span is past the bound. A late segment at
// 1e-300 s spans no bins of its own but its count from 0 s is past any int,
// and is refused too.
func TestTimeAxisBoundsSegmentSpan(t *testing.T) {
	const late = 40 * 3600e6
	seg := NewIndex(&Trace{Packets: []Packet{{TS: late}, {TS: late + 15e6}}})
	if ax, err := NewTimeAxis(seg, 0.5); err != nil || ax.Bins != 288030 || ax.Bins <= maxTimeBins || ax.First() != 288000 {
		t.Errorf("15 s segment at 40 h: %+v, %v", ax, err)
	}
	// First is the first packet's Bin, clamp included: packets that all sit
	// on the last edge have their first bin at Bins−1.
	edge := NewIndex(&Trace{Packets: []Packet{{TS: 30e6}, {TS: 30e6}}})
	if ax, err := NewTimeAxis(edge, 1); err != nil || ax.Bins != 30 || ax.First() != 29 {
		t.Errorf("two packets at 30 s: %+v, %v", ax, err)
	}
	for _, tc := range []struct {
		name  string
		ts    []int64
		width float64
	}{
		{"0 s to 40 h", []int64{0, late}, 0.5},
		{"2^18 s at 40 h", []int64{late, late + maxTimeBins*1e6}, 0.5},
		{"one instant at 40 h", []int64{late, late}, 1e-300},
	} {
		tr := &Trace{}
		for _, ts := range tc.ts {
			tr.Append(Packet{TS: ts})
		}
		if ax, err := NewTimeAxis(NewIndex(tr), tc.width); err == nil {
			t.Errorf("%s at %v s accepted: %+v", tc.name, tc.width, ax)
		}
	}
}
