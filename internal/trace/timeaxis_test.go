package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestTimeAxisEmptyIndex: an empty index has an empty span and no bins at
// any valid width.
func TestTimeAxisEmptyIndex(t *testing.T) {
	ax, err := NewTimeAxis(NewIndex(&Trace{}), 500_000)
	if err != nil || ax != (TimeAxis{Width: 500_000}) {
		t.Fatalf("empty index: %+v, %v", ax, err)
	}
}

// TestTimeAxisBins pins the bin count, the packet → bin map with its clamp,
// and the bin → interval map on a trace whose last packet sits exactly on
// a bin edge at width 1 s and inside a bin at width 4 s.
func TestTimeAxisBins(t *testing.T) {
	ix := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: 2_500_000}, {TS: 29_999_999}, {TS: 30_000_000}}})
	cases := []struct {
		width int64
		bins  int
		of    []int // Bin of each packet
	}{
		{1e6, 30, []int{0, 2, 29, 29}}, // 30 s is on the edge: clamped into bin 29
		{4e6, 8, []int{0, 0, 7, 7}},
		{5e5, 60, []int{0, 5, 59, 59}},
		{45e6, 1, []int{0, 0, 0, 0}},
	}
	for _, tc := range cases {
		ax, err := NewTimeAxis(ix, tc.width)
		if err != nil {
			t.Fatalf("width %d µs: %v", tc.width, err)
		}
		if ax.Width != tc.width || ax.Bins != tc.bins || ax.First() != 0 {
			t.Errorf("width %d µs: axis %+v, want %d bins over 30 s", tc.width, ax, tc.bins)
		}
		for pi, ts := range ix.TS {
			if got := ax.Bin(ts); got != tc.of[pi] {
				t.Errorf("width %d µs: Bin(%d) = %d, want %d", tc.width, ts, got, tc.of[pi])
			}
		}
	}

	ax, _ := NewTimeAxis(ix, 1e6)
	if from, to := ax.Interval(2, 4); from != 2e6 || to != 5e6 {
		t.Errorf("Interval(2, 4) = [%d, %d), want [2e6, 5e6)", from, to)
	}
	// The clamped packet is in bin 29 but outside that bin's window.
	if lo, hi := ix.Window(ax.Interval(29, 29)); lo != 2 || hi != 3 {
		t.Errorf("Window(Interval(29, 29)) = [%d, %d), want [2, 3)", lo, hi)
	}
}

// TestTimeAxisRejects: a width that is not positive is an error, and so is
// one cutting the span into more than maxTimeBins bins — 30 s at 1 µs, and
// at 114 µs, the widest width past the bound. A span of exactly maxTimeBins
// bins is accepted, and so is the daemon's longest admissible trace, 24 h,
// at the finest standard width, 0.5 s.
func TestTimeAxisRejects(t *testing.T) {
	ix := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: 30_000_000}}})
	for _, w := range []int64{0, -1, math.MinInt64, 1, 30_000_000 / (maxTimeBins + 1)} {
		if ax, err := NewTimeAxis(ix, w); err == nil {
			t.Errorf("width %d µs accepted: %+v", w, ax)
		}
	}
	long := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: maxTimeBins * 1e6}}})
	if ax, err := NewTimeAxis(long, 1e6); err != nil || ax.Bins != maxTimeBins {
		t.Errorf("%d bins of 1 s: %+v, %v", maxTimeBins, ax, err)
	}
	if _, err := NewTimeAxis(long, 999_000); err == nil {
		t.Errorf("%d s at 0.999 s accepted", maxTimeBins)
	}
	day := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: 86400e6}}})
	if ax, err := NewTimeAxis(day, 5e5); err != nil || ax.Bins != 172800 {
		t.Errorf("24 h at 0.5 s: %+v, %v", ax, err)
	}
}

// TestTimeAxisBoundsSegmentSpan: the bound counts the bins from the first
// packet's, First, so a 15 s stream segment 40 h in is accepted at 0.5 s
// although its axis, counted from 0 s, has 288 030 bins; 0 s to 40 h is
// refused, and so is a late segment whose own span is past the bound. A late
// segment at 1 µs spans no bins of its own but its count from 0 s is past
// an int32, and is refused too.
func TestTimeAxisBoundsSegmentSpan(t *testing.T) {
	const late = 40 * 3600e6
	seg := NewIndex(&Trace{Packets: []Packet{{TS: late}, {TS: late + 15e6}}})
	if ax, err := NewTimeAxis(seg, 5e5); err != nil || ax.Bins != 288030 || ax.Bins <= maxTimeBins || ax.First() != 288000 {
		t.Errorf("15 s segment at 40 h: %+v, %v", ax, err)
	}
	// First is the first packet's Bin, clamp included: packets that all sit
	// on the last edge have their first bin at Bins−1.
	edge := NewIndex(&Trace{Packets: []Packet{{TS: 30e6}, {TS: 30e6}}})
	if ax, err := NewTimeAxis(edge, 1e6); err != nil || ax.Bins != 30 || ax.First() != 29 {
		t.Errorf("two packets at 30 s: %+v, %v", ax, err)
	}
	for _, tc := range []struct {
		name  string
		ts    []int64
		width int64
	}{
		{"0 s to 40 h", []int64{0, late}, 5e5},
		{"2^18 s at 40 h", []int64{late, late + maxTimeBins*1e6}, 5e5},
		{"one instant at 40 h", []int64{late, late}, 1},
	} {
		tr := &Trace{}
		for _, ts := range tc.ts {
			tr.Append(Packet{TS: ts})
		}
		if ax, err := NewTimeAxis(NewIndex(tr), tc.width); err == nil {
			t.Errorf("%s at %d µs accepted: %+v", tc.name, tc.width, ax)
		}
	}
}

// standardWidths are the detectors' bin widths: Hough's and Gamma's finest,
// PCA's, Gamma's coarsest and KL's.
var standardWidths = [...]float64{0.5, 1, 2, 5}

// TestTimeAxisExtremes pins the bound at the ends of the timestamp range. A
// packet at math.MaxInt64 µs needs ~10¹³ bins from 0 s at every standard
// width, past an int32, and is refused: a ceiling written as
// (last+width−1)/width would wrap negative there and accept it. A
// three-packet segment 2⁴⁰ µs (~12.7 days) in is accepted, its first packet
// in bin 2⁴⁰/width.
func TestTimeAxisExtremes(t *testing.T) {
	const late = 1 << 40
	for _, width := range standardWidths {
		w := int64(width * 1e6)
		for _, ts := range [][]int64{{math.MaxInt64}, {0, math.MaxInt64}, {math.MaxInt64 - 1, math.MaxInt64}} {
			tr := &Trace{}
			for _, at := range ts {
				tr.Append(Packet{TS: at})
			}
			if ax, err := NewTimeAxis(NewIndex(tr), w); err == nil {
				t.Errorf("width %v s: packets at %v µs accepted: %+v", width, ts, ax)
			}
		}
		seg := NewIndex(&Trace{Packets: []Packet{{TS: late}, {TS: late + 1e6}, {TS: late + 15e6}}})
		if ax, err := NewTimeAxis(seg, w); err != nil || int64(ax.First()) != late/w {
			t.Errorf("width %v s: segment at 2^40 µs: %+v, %v, want First %d", width, ax, err, late/w)
		}
	}
}

// checkFloatReference asserts that the integer axis, a filter on bin b's
// interval and the index's window bound agree at ts with the float formulas
// they replaced: Bin was min(int(sec/width), Bins−1) with sec = ts/1e6,
// Interval was [b·width, (b+1)·width) seconds, Filter.Match compared sec
// against that interval, and Window searched for int64(bound·1e6).
func checkFloatReference(t *testing.T, ax TimeAxis, width float64, ts int64) {
	t.Helper()
	sec := float64(ts) / 1e6
	if got, want := ax.Bin(ts), min(int(sec/width), ax.Bins-1); got != want {
		t.Fatalf("width %v s: Bin(%d) = %d, float reference %d", width, ts, got, want)
	}
	b := int(ts / ax.Width)
	for _, k := range []int{b - 1, b, b + 1} {
		if k < 0 {
			continue
		}
		from, to := ax.Interval(k, k)
		fromSec, toSec := float64(k)*width, float64(k+1)*width
		if float64(from)/1e6 != fromSec || float64(to)/1e6 != toSec {
			t.Fatalf("width %v s: Interval(%d) = [%d, %d) µs, float reference [%v, %v) s", width, k, from, to, fromSec, toSec)
		}
		if from != int64(fromSec*1e6) || to != int64(toSec*1e6) {
			t.Fatalf("width %v s: Interval(%d) = [%d, %d) µs, Window searched [%d, %d)", width, k, from, to, int64(fromSec*1e6), int64(toSec*1e6))
		}
		p := Packet{TS: ts}
		if got, want := NewFilter().WithInterval(from, to).Match(&p), sec >= fromSec && sec < toSec; got != want {
			t.Fatalf("width %v s: bin %d's filter matches %d µs: %v, float reference %v", width, k, ts, got, want)
		}
	}
}

// TestTimeAxisMatchesFloatReference: at every standard width, the integer
// axis bins, bounds and matches exactly as the float seconds it replaced —
// at every bin edge of a 24 h day and 2 µs either side, and at 200 000
// seeded random timestamps of that day.
func TestTimeAxisMatchesFloatReference(t *testing.T) {
	const day = 86400e6
	ix := NewIndex(&Trace{Packets: []Packet{{TS: 0}, {TS: day}}})
	for _, width := range standardWidths {
		ax, err := NewTimeAxis(ix, int64(width*1e6))
		if err != nil {
			t.Fatalf("width %v s: %v", width, err)
		}
		for k := int64(0); k <= int64(ax.Bins); k++ {
			for d := int64(-2); d <= 2; d++ {
				if ts := k*ax.Width + d; ts >= 0 && ts <= day {
					checkFloatReference(t, ax, width, ts)
				}
			}
		}
		rng := rand.New(rand.NewSource(49))
		for range 200_000 {
			checkFloatReference(t, ax, width, rng.Int63n(day+1))
		}
	}
}

// fuzzWidths are FuzzTimeAxis's bin widths in µs: the standard ones first,
// which it also checks against the float reference, then widths that are not
// a whole number of any of them, and widths NewTimeAxis rejects.
var fuzzWidths = [...]int64{5e5, 1e6, 2e6, 5e6, 1, 340_000, 999_000, math.MaxInt64, 0, -1}

// FuzzTimeAxis checks the time axis over arbitrary sorted packets and the
// widths fuzzWidths[wi%len]: NewTimeAxis fails exactly when the width is not
// positive, the packets spread from the first one's bin over more than
// maxTimeBins bins, or the count from 0 s does not fit an int32; otherwise
// Bins is ceil(last/Width), Bin is non-decreasing over the packets and stays
// in [0, Bins), and every packet lies in its bin's Interval — except one the
// clamp moved into the last bin, which must sit on that bin's end,
// Bins·Width. At a standard width every packet also bins, bounds and
// matches as the float formulas did (checkFloatReference).
func FuzzTimeAxis(f *testing.F) {
	edge := fuzzBytes([]Packet{{TS: 0}, {TS: 1_500_000}, {TS: 2_999_999}, {TS: 3_000_000}})
	f.Add([]byte{}, uint8(1))
	f.Add(edge, uint8(1))
	f.Add(edge, uint8(0))
	f.Add(edge, uint8(4))
	f.Add(edge, uint8(8))
	f.Add(edge, uint8(9))
	f.Add(edge, uint8(7))
	f.Add(fuzzBytes(indexTestTrace(3, 40).Packets), uint8(5))
	f.Add(fuzzBytes([]Packet{{TS: 0}, {TS: 20_723_000_000}}), uint8(5))                // 20723 s bins below its interval's end
	f.Add(fuzzBytes([]Packet{{TS: 144_000_000_000}, {TS: 144_015_000_000}}), uint8(0)) // a 15 s segment 40 h in
	f.Add(fuzzBytes([]Packet{{TS: 1<<48 - 1}, {TS: 1<<48 - 1}}), uint8(4))             // the largest fuzzed timestamp, 1 µs bins
	f.Add(fuzzBytes([]Packet{{TS: 86_399_999_998}, {TS: 86_400_000_002}}), uint8(3))   // a day's last edge
	f.Fuzz(func(t *testing.T, data []byte, wi uint8) {
		k := int(wi) % len(fuzzWidths)
		w := fuzzWidths[k]
		tr := &Trace{Packets: fuzzPackets(data)}
		tr.Sort()
		ix := NewIndex(tr)
		ax, err := NewTimeAxis(ix, w)
		valid := w > 0
		var bins uint64 // the ceiling in uint64, where last+w−1 cannot overflow
		if n := ix.Len(); valid && n > 0 {
			last := uint64(ix.TS[n-1])
			bins = (last + uint64(w) - 1) / uint64(w)
			valid = bins-uint64(ix.TS[0])/uint64(w) <= maxTimeBins && bins < math.MaxInt32
		}
		if (err == nil) != valid {
			t.Fatalf("width %d µs over %d packets: error %v, want one: %v", w, ix.Len(), err, !valid)
		}
		if err != nil {
			return
		}
		if ax.Width != w || uint64(ax.Bins) != bins {
			t.Fatalf("width %d µs: axis %+v, want %d bins", w, ax, bins)
		}
		if ax.Bins == 0 {
			return // a zero span: every packet at 0 s, nothing to bin
		}
		prev := 0
		for _, ts := range ix.TS {
			b := ax.Bin(ts)
			if b < prev || b >= ax.Bins {
				t.Fatalf("width %d µs: Bin(%d) = %d after %d, want in [%d, %d)", w, ts, b, prev, prev, ax.Bins)
			}
			prev = b
			from, to := ax.Interval(b, b)
			switch clamped := ts/w >= int64(ax.Bins); {
			case clamped && ts != to:
				t.Fatalf("width %d µs: %d µs clamped into bin %d, not on its end %d", w, ts, b, to)
			case !clamped && (ts < from || ts >= to):
				t.Fatalf("width %d µs: %d µs in bin %d, outside its interval [%d, %d)", w, ts, b, from, to)
			}
			if k < len(standardWidths) {
				checkFloatReference(t, ax, standardWidths[k], ts)
			}
		}
	})
}
