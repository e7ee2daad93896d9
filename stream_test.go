package mawilab

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mawilab/internal/core"
	wirev1 "mawilab/internal/serve/v1"
	"mawilab/internal/trace"
)

// streamTestDay regenerates the golden fixture's archive day — the same
// trace TestPipelineGolden pins — so the streaming tests can compare against
// the committed batch fixture.
func streamTestDay(t *testing.T) *Trace {
	t.Helper()
	return streamArchiveDay(Date(2004, 5, 10), 30)
}

// replay fills a buffered channel with the trace's packets and closes it, so
// stream consumers never need a producer goroutine.
func replay(tr *Trace) <-chan Packet {
	ch := make(chan Packet, tr.Len())
	for _, p := range tr.Packets {
		ch <- p
	}
	close(ch)
	return ch
}

// drainStream collects every window labeling and the terminal error, and
// fails the test if Windows has not closed within a minute.
func drainStream(t *testing.T, s *Stream) ([]*WindowLabeling, error) {
	t.Helper()
	deadline := time.After(time.Minute)
	var out []*WindowLabeling
	for {
		select {
		case w, ok := <-s.Windows():
			if !ok {
				return out, s.Wait()
			}
			out = append(out, w)
		case <-deadline:
			t.Fatalf("Windows still open after a minute, %d windows in", len(out))
		}
	}
}

func csvDigest(t *testing.T, l *Labeling) string {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestStreamMatchesBatch is the api_redesign acceptance gate: RunStream over
// a packet stream chopped at the canonical batch boundary (the zero
// StreamConfig — one unbounded segment, one window) reproduces the committed
// batch golden fixture byte-for-byte at every worker count. No -update path
// exists here on purpose: this test consumes the fixture TestPipelineGolden
// owns, so stream output is only allowed to move when batch output moves.
func TestStreamMatchesBatch(t *testing.T) {
	data, err := os.ReadFile(pipelineGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run TestPipelineGolden -update first): %v", err)
	}
	var want pipelineGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", pipelineGoldenPath, err)
	}

	day := streamTestDay(t)
	if d := trace.NewIndex(day).Digest(); d != want.TraceSHA256 {
		t.Fatalf("generated day drifted from fixture: %s..., want %s...", d[:12], want.TraceSHA256[:12])
	}

	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPipeline().Parallelism(workers) // zero StreamConfig: canonical boundary
		windows, err := drainStream(t, p.RunStream(context.Background(), replay(day)))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(windows) != 1 {
			t.Fatalf("workers=%d: canonical boundary emitted %d windows, want 1", workers, len(windows))
		}
		w := windows[0]
		if w.Start != 0 || !math.IsInf(w.End, 1) {
			t.Errorf("workers=%d: canonical window spans [%g,%g), want [0,+Inf)", workers, w.Start, w.End)
		}
		if w.Index.Digest() != want.TraceSHA256 {
			t.Errorf("workers=%d: window index digest differs from the ingested day", workers)
		}
		l := w.Labeling
		if len(l.Alarms) != want.Alarms {
			t.Errorf("workers=%d: %d alarms, want %d", workers, len(l.Alarms), want.Alarms)
		}
		if len(l.Result.Communities) != want.Communities {
			t.Errorf("workers=%d: %d communities, want %d", workers, len(l.Result.Communities), want.Communities)
		}
		if len(l.Reports) != len(want.Labels) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(l.Reports), len(want.Labels))
		}
		for i, rep := range l.Reports {
			if rep.Label.String() != want.Labels[i] {
				t.Errorf("workers=%d: community %d labeled %s, want %s", workers, i, rep.Label, want.Labels[i])
			}
		}
		if got := csvDigest(t, l); got != want.CSVSHA256 {
			t.Errorf("workers=%d: stream CSV digest %s..., want batch fixture %s...", workers, got[:12], want.CSVSHA256[:12])
		}
	}
}

// TestStreamDeterminismMatrix pins the worker-count invariance of the
// segmented path: for every shape, the concatenated window CSVs are
// byte-identical to the sequential workers=1 reference. The 30 s test day
// runs 2-segment windows at three segment lengths; a 120 s day of the same
// archive runs stream_sliding's shape (15 s segments, window 4, stride 1),
// where every window after the first carries three segments' alarm traffic
// from the one before.
func TestStreamDeterminismMatrix(t *testing.T) {
	day := streamTestDay(t)
	for _, tc := range []struct {
		tr      *Trace
		cfg     StreamConfig
		minFull int // full windows the shape must emit
	}{
		{day, StreamConfig{SegmentSeconds: 5, WindowSegments: 2, WindowStride: 1}, 1},
		{day, StreamConfig{SegmentSeconds: 10, WindowSegments: 2, WindowStride: 1}, 1},
		{day, StreamConfig{SegmentSeconds: 30, WindowSegments: 2, WindowStride: 1}, 0},
		{streamArchiveDay(Date(2004, 5, 10), 120), StreamConfig{SegmentSeconds: 15, WindowSegments: 4, WindowStride: 1}, 2},
	} {
		name := fmt.Sprintf("segment=%gs window=%d stride=%d", tc.cfg.SegmentSeconds, tc.cfg.WindowSegments, tc.cfg.WindowStride)
		var ref []byte
		var refWindows int
		for _, workers := range []int{1, 2, 4, 8} {
			p := NewPipeline().Parallelism(workers)
			p.Stream = tc.cfg
			windows, err := drainStream(t, p.RunStream(context.Background(), replay(tc.tr)))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if len(windows) == 0 {
				t.Fatalf("%s workers=%d: no windows emitted", name, workers)
			}
			full := 0
			for _, w := range windows {
				if len(w.Segments) == tc.cfg.WindowSegments {
					full++
				}
			}
			if full < tc.minFull {
				t.Fatalf("%s workers=%d: %d full windows, want >= %d", name, workers, full, tc.minFull)
			}
			var all bytes.Buffer
			for _, w := range windows {
				if err := w.Labeling.WriteCSV(&all); err != nil {
					t.Fatal(err)
				}
			}
			if workers == 1 {
				ref = append([]byte(nil), all.Bytes()...)
				refWindows = len(windows)
				continue
			}
			if len(windows) != refWindows {
				t.Errorf("%s workers=%d: %d windows, sequential reference emitted %d",
					name, workers, len(windows), refWindows)
			}
			if !bytes.Equal(all.Bytes(), ref) {
				t.Errorf("%s workers=%d: window CSVs differ from the sequential reference", name, workers)
			}
		}
	}
}

// streamArchiveDay generates an archive day of the streaming tests' archive
// (seed 42, 200 pps base rate), seconds long.
func streamArchiveDay(date time.Time, seconds float64) *Trace {
	arch := NewArchive(42)
	arch.Duration = seconds
	arch.BaseRate = 200
	return arch.Day(date).Trace
}

// straddler is a test detector whose alarms cross segment boundaries on
// purpose, which no standard detector's do: per segment, config 0 reports
// the half minute around the segment's first packet (reaching back into the
// segment before) and config 1 the quarter minute from its last packet's
// last five seconds (reaching into the segment after, which seals later),
// each as two filters — the first packet's destination, and all of UDP.
type straddler struct{}

func (straddler) Name() string    { return "straddle" }
func (straddler) NumConfigs() int { return 2 }
func (straddler) Detect(ix *Index, config int) ([]Alarm, error) {
	if ix.Len() == 0 {
		return nil, nil
	}
	from, to := ix.TS[0]-15e6, ix.TS[0]+15e6
	if config == 1 {
		last := ix.TS[ix.Len()-1]
		from, to = last-5e6, last+10e6
	}
	return []Alarm{{Detector: "straddle", Config: config, Filters: []Filter{
		NewFilter().WithDst(ix.Dst[0]).WithInterval(from, to),
		NewFilter().WithProto(trace.UDP).WithInterval(from, to),
	}}}, nil
}

// TestStreamCarriedTrafficMatchesReextraction is the reference for the
// per-segment carry: every alarm of every window is extracted again against
// the window index with Extractor.Extract — what RunStream did per window
// before it resolved each alarm once per segment — and the window's carried
// traffic set must equal it (IDs, FlowRefs and PacketIdx). Two archive days
// stream at stream_sliding's shape and at window 4 / stride 3, whose last
// window is a partial one, at all three granularities, with the straddler
// beside the standard ensemble. The test fails unless the carry met untimed
// Gamma alarms, multi-filter Hough alarms, straddling alarms whose packets
// span two segments, and a final partial window.
func TestStreamCarriedTrafficMatchesReextraction(t *testing.T) {
	var untimedGamma, multiHough, straddling, partial int
	for _, date := range []time.Time{Date(2004, 5, 10), Date(2006, 10, 16)} {
		tr := streamArchiveDay(date, 90)
		for _, cfg := range []StreamConfig{
			{SegmentSeconds: 15, WindowSegments: 4, WindowStride: 1},
			{SegmentSeconds: 15, WindowSegments: 4, WindowStride: 3},
		} {
			for _, g := range []Granularity{GranPacket, GranUniFlow, GranBiFlow} {
				p := NewPipeline()
				p.Detectors = append(StandardDetectors(), straddler{})
				p.Estimator.Granularity = g
				p.Stream = cfg
				windows, err := drainStream(t, p.RunStream(context.Background(), replay(tr)))
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range windows {
					if len(w.Segments) > 1 && len(w.Segments) < cfg.WindowSegments && w == windows[len(windows)-1] {
						partial++
					}
					// bounds[k] is the window id of segment k's first packet.
					bounds := make([]int, len(w.Segments))
					for k := 1; k < len(w.Segments); k++ {
						bounds[k] = bounds[k-1] + w.Segments[k-1].Len()
					}
					segOf := func(pi int) int {
						k, found := slices.BinarySearch(bounds, pi)
						if !found {
							k--
						}
						return k
					}
					ext := core.NewExtractor(w.Index, g)
					for i := range w.Labeling.Alarms {
						a := &w.Labeling.Alarms[i]
						want, got := ext.Extract(a), w.Labeling.Result.Sets[i]
						if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.FlowRefs, want.FlowRefs) ||
							!slices.Equal(got.PacketIdx, want.PacketIdx) {
							t.Fatalf("%s %+v %v window %d alarm %d (%s): carried traffic differs from re-extraction:\ncarried   %+v\nextracted %+v",
								date.Format("2006-01-02"), cfg, g, w.Window, i, a, got, want)
						}
						if len(want.IDs) == 0 || len(w.Segments) == 1 {
							continue
						}
						timed := false
						for _, f := range a.Filters {
							timed = timed || f.TimeBounded()
						}
						switch {
						case a.Detector == "gamma" && !timed:
							untimedGamma++
						case a.Detector == "hough" && len(a.Filters) > 1:
							multiHough++
						case a.Detector == "straddle" && g == GranPacket &&
							segOf(want.PacketIdx[0]) != segOf(want.PacketIdx[len(want.PacketIdx)-1]):
							straddling++
						}
					}
				}
			}
		}
	}
	t.Logf("untimed gamma %d, multi-filter hough %d, straddling %d, partial windows %d", untimedGamma, multiHough, straddling, partial)
	if untimedGamma == 0 || multiHough == 0 || straddling == 0 || partial == 0 {
		t.Fatal("a case the carry must cover never occurred")
	}
}

// TestStreamWindowSemantics checks the sliding-window mechanics: tumbling
// windows partition the sealed segments in order, stream time is monotonic,
// and the trailing segments no full window covered are labeled as a final
// partial window at end of stream.
func TestStreamWindowSemantics(t *testing.T) {
	day := streamTestDay(t)

	// Count the sealed segments the same chop produces.
	nsegs := 0
	for seg, err := range Segments(context.Background(), replay(day), 5, 1) {
		if err != nil {
			t.Fatal(err)
		}
		if seg.Len() == 0 {
			t.Fatalf("segment %d sealed empty", seg.Seq)
		}
		nsegs++
	}
	if nsegs < 3 {
		t.Fatalf("test day chopped into %d segments, need >= 3 for a partial window", nsegs)
	}

	const window = 4 // tumbling: stride defaults to window
	p := NewPipeline()
	p.Stream = StreamConfig{SegmentSeconds: 5, WindowSegments: window}
	windows, err := drainStream(t, p.RunStream(context.Background(), replay(day)))
	if err != nil {
		t.Fatal(err)
	}
	wantWindows := (nsegs + window - 1) / window
	if len(windows) != wantWindows {
		t.Fatalf("windows = %d, want %d over %d segments", len(windows), wantWindows, nsegs)
	}
	seen := 0
	for i, w := range windows {
		if w.Window != i {
			t.Errorf("window %d numbered %d", i, w.Window)
		}
		if len(w.Segments) == 0 || len(w.Segments) > window {
			t.Fatalf("window %d carries %d segments", i, len(w.Segments))
		}
		if w.Start != w.Segments[0].Start || w.End != w.Segments[len(w.Segments)-1].End {
			t.Errorf("window %d spans [%g,%g), segments span [%g,%g)",
				i, w.Start, w.End, w.Segments[0].Start, w.Segments[len(w.Segments)-1].End)
		}
		if i > 0 && w.Start < windows[i-1].End {
			t.Errorf("tumbling window %d starts at %g before previous end %g", i, w.Start, windows[i-1].End)
		}
		npkts := 0
		for _, seg := range w.Segments {
			if seg.Seq != seen {
				t.Errorf("window %d: segment seq %d, want %d (in-order partition)", i, seg.Seq, seen)
			}
			seen++
			npkts += seg.Len()
		}
		if w.Index.Len() != npkts {
			t.Errorf("window %d index has %d packets, segments carry %d", i, w.Index.Len(), npkts)
		}
	}
	if seen != nsegs {
		t.Errorf("windows covered %d segments, stream sealed %d", seen, nsegs)
	}
	if rem := nsegs % window; rem != 0 {
		if last := windows[len(windows)-1]; len(last.Segments) != rem {
			t.Errorf("final partial window carries %d segments, want %d", len(last.Segments), rem)
		}
	}
}

// TestStreamADMDSpan: a streamed window's ADMD time span opens inside the
// window, on its first packet's whole second, not at 0 s, and closes on its
// last packet.
func TestStreamADMDSpan(t *testing.T) {
	p := NewPipeline()
	p.Stream = StreamConfig{SegmentSeconds: 5, WindowSegments: 2, WindowStride: 1}
	windows, err := drainStream(t, p.RunStream(context.Background(), replay(streamTestDay(t))))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, w := range windows[1:] {
		var buf bytes.Buffer
		if err := w.Labeling.WriteADMD(&buf, "window"); err != nil {
			t.Fatal(err)
		}
		var doc wirev1.Document
		if err := xml.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		for _, a := range doc.Anomalies {
			if from := float64(a.From.Sec); from < w.Start-1 || from > w.Index.Start() {
				t.Errorf("window %d [%g,%g): anomaly from %d s", w.Window, w.Start, w.End, a.From.Sec)
			}
			if a.To.Sec != int64(w.Index.Duration()) {
				t.Errorf("window %d: anomaly to %d s, last packet at %g s", w.Window, a.To.Sec, w.Index.Duration())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no window after the first reported an anomaly: the span was never checked")
	}
}

// TestStreamCancelMidStream cancels the context after the first window and
// requires the stream to terminate with context.Canceled: Windows closes and
// Wait reports the cancellation.
func TestStreamCancelMidStream(t *testing.T) {
	day := streamTestDay(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Unbuffered producer: after cancel, no packet already queued can let
	// the engine run ahead to a clean end of stream.
	ch := make(chan Packet)
	go func() {
		defer close(ch)
		for _, p := range day.Packets {
			select {
			case ch <- p:
			case <-ctx.Done():
				return
			}
		}
	}()

	p := NewPipeline()
	p.Stream = StreamConfig{SegmentSeconds: 5}
	s := p.RunStream(ctx, ch)
	first, ok := <-s.Windows()
	if !ok {
		t.Fatal("stream produced no window before cancellation")
	}
	if first.Window != 0 {
		t.Fatalf("first window numbered %d", first.Window)
	}
	cancel()
	if _, err := drainStream(t, s); !errors.Is(err, context.Canceled) { // until the engine notices the cancel
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
}

// TestStreamCancelledBeforeStart: a stream started under an already-cancelled
// context emits nothing and fails with context.Canceled.
func TestStreamCancelledBeforeStart(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewPipeline().RunStream(ctx, make(chan Packet)) // open, empty channel
	windows, err := drainStream(t, s)
	if len(windows) != 0 {
		t.Errorf("cancelled stream emitted %d windows", len(windows))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
}

// settleGoroutines fails the test unless the goroutine count falls back to
// base within ten seconds: both stages of every stream the test started, and
// their fan-outs, have exited.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the stream:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// segmentFailer is a detector that reports nothing before failFrom (µs) and
// fails on every segment whose first packet is at or after it.
type segmentFailer struct{ failFrom int64 }

var errSegment = errors.New("synthetic segment failure")

func (segmentFailer) Name() string    { return "segfail" }
func (segmentFailer) NumConfigs() int { return 1 }
func (d segmentFailer) Detect(ix *Index, config int) ([]Alarm, error) {
	if ix.Len() > 0 && ix.TS[0] >= d.failFrom {
		return nil, errSegment
	}
	return nil, nil
}

// TestStreamDetectorFailsOnSegment: a detector that fails on segment k stops
// the stream after the windows that end before k — the same windows, byte
// for byte, as a stream without the failure — and Wait returns the detector
// stage's error unchanged. Under window 2 / stride 1 over 5 s segments the
// labeling of window k−2 overlaps the detection of segment k.
func TestStreamDetectorFailsOnSegment(t *testing.T) {
	day := streamTestDay(t)
	const k = 3
	for _, workers := range []int{1, 4} {
		run := func(failFrom int64) ([]*WindowLabeling, error) {
			p := NewPipeline().Parallelism(workers)
			p.Detectors = append(StandardDetectors(), segmentFailer{failFrom})
			p.Stream = StreamConfig{SegmentSeconds: 5, WindowSegments: 2, WindowStride: 1}
			return drainStream(t, p.RunStream(context.Background(), replay(day)))
		}
		clean, err := run(math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		windows, err := run(k * 5e6)
		if !errors.Is(err, errSegment) || err.Error() != "detectors: segfail/0: synthetic segment failure" {
			t.Fatalf("workers=%d: Wait = %v, want the detector stage's error", workers, err)
		}
		if len(windows) != k-1 {
			t.Fatalf("workers=%d: %d windows before the failing segment %d, want %d", workers, len(windows), k, k-1)
		}
		for i, w := range windows {
			if last := w.Segments[len(w.Segments)-1].Seq; last >= k {
				t.Errorf("workers=%d: window %d holds segment %d, at or after the failing one", workers, i, last)
			}
			if w.Start != clean[i].Start || w.End != clean[i].End || csvDigest(t, w.Labeling) != csvDigest(t, clean[i].Labeling) {
				t.Errorf("workers=%d: window %d differs from the same window of the stream without the failure", workers, i)
			}
		}
		settleGoroutines(t, base)
	}
}

// windowFailer is a Strategy that fails the window it classifies as its
// failAt-th call (0-based) and otherwise defers to SCANN.
type windowFailer struct {
	Strategy
	failAt int32
	calls  atomic.Int32
}

var errWindow = errors.New("synthetic window failure")

func (s *windowFailer) Classify(r *core.Result, conf []core.DetectorScores) ([]Decision, error) {
	if s.calls.Add(1)-1 == s.failAt {
		return nil, errWindow
	}
	return s.Strategy.Classify(r, conf)
}

// TestStreamStrategyFailsOnWindow: a Strategy that fails at window j ends the
// stream with its error, unchanged, after windows 0..j−1, and stops the
// detection stage without draining the feeder's channel.
func TestStreamStrategyFailsOnWindow(t *testing.T) {
	day := streamTestDay(t)
	const j = 1
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ch, stop, fed := make(chan Packet), make(chan struct{}), make(chan int, 1)
		go func() {
			n := 0
			defer func() { fed <- n }()
			for _, p := range day.Packets {
				select {
				case ch <- p:
					n++
				case <-stop:
					return
				}
			}
			close(ch)
		}()
		p := NewPipeline().Parallelism(workers)
		p.Strategy = &windowFailer{Strategy: SCANN(), failAt: j}
		p.Stream = StreamConfig{SegmentSeconds: 5, WindowSegments: 2, WindowStride: 1}
		windows, err := drainStream(t, p.RunStream(context.Background(), ch))
		if err != errWindow {
			t.Fatalf("workers=%d: Wait = %v, want the Strategy's error unchanged", workers, err)
		}
		if len(windows) != j {
			t.Fatalf("workers=%d: %d windows before the failing window %d", workers, len(windows), j)
		}
		close(stop)
		if n := <-fed; n >= day.Len() {
			t.Errorf("workers=%d: the feeder sent all %d packets: detection drained the channel after the failure", workers, n)
		}
		settleGoroutines(t, base)
	}
}

// TestStreamObserveSequential: Observe's calls within one run never overlap,
// although the next segment is sealed and detected while the current window
// is labeled. The hook holds each call for a millisecond and counts the calls
// in flight; -race also reports the unsynchronized counters a concurrent call
// would touch.
func TestStreamObserveSequential(t *testing.T) {
	var (
		inflight, overlaps atomic.Int32
		calls              = map[Stage]int{}
	)
	p := NewPipeline().Parallelism(2)
	p.Stream = StreamConfig{SegmentSeconds: 5, WindowSegments: 4, WindowStride: 1}
	p.Observe = func(stage Stage, _ float64) {
		if inflight.Add(1) > 1 {
			overlaps.Add(1)
		}
		calls[stage]++
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
	}
	if _, err := drainStream(t, p.RunStream(context.Background(), replay(streamArchiveDay(Date(2004, 5, 10), 90)))); err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("%d Observe calls entered while another was in flight", n)
	}
	if calls[StageDetect] != 18 || calls[StageLabel] != 15 {
		t.Fatalf("Observe saw %d detect and %d label calls, want 18 and 15 (18 segments, 15 windows)", calls[StageDetect], calls[StageLabel])
	}
}

// TestUnsortedInputFails: every ingest shape enforces the sorted trace model
// with the same typed error. RunStream always did; Run and SealTrace used to
// accept an unsorted or negative-timestamp trace and silently build an index
// with wrong time buckets.
func TestUnsortedInputFails(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"out of order": {Packets: []Packet{{TS: 2_000_000}, {TS: 1_000_000}}},
		"negative":     {Packets: []Packet{{TS: -1}, {TS: 1_000_000}}},
	} {
		windows, err := drainStream(t, NewPipeline().RunStream(context.Background(), replay(tr)))
		if len(windows) != 0 {
			t.Errorf("%s: stream emitted %d windows", name, len(windows))
		}
		if !errors.Is(err, trace.ErrUnsorted) {
			t.Errorf("%s: RunStream = %v, want trace.ErrUnsorted", name, err)
		}
		if _, err := NewPipeline().Run(tr); !errors.Is(err, trace.ErrUnsorted) {
			t.Errorf("%s: Run = %v, want trace.ErrUnsorted", name, err)
		}
		if _, err := NewPipeline().RunAlarms(tr, nil, nil); !errors.Is(err, trace.ErrUnsorted) {
			t.Errorf("%s: RunAlarms = %v, want trace.ErrUnsorted", name, err)
		}
		if _, err := SealTrace(context.Background(), tr, 1); !errors.Is(err, trace.ErrUnsorted) {
			t.Errorf("%s: SealTrace = %v, want trace.ErrUnsorted", name, err)
		}
	}
}

// TestSealedIndexesSurvivePoolChurn: the engine's indexes — sealed segments
// and window indexes — are detached from the arena pool that DecodePcap
// recycles, so a consumer may hold window labelings for as long as it likes.
// Label a sliding stream and keep every window; then, while goroutines churn
// the pool with DecodePcap+Release cycles of two differently sized traces,
// keep re-deriving each held index's digest and compare it with the digest
// of the same time span cut from the source day. Run under -race this also
// proves no pooled buffer is shared with a held index.
func TestSealedIndexesSurvivePoolChurn(t *testing.T) {
	day := streamTestDay(t)
	p := NewPipeline()
	p.Stream = StreamConfig{SegmentSeconds: 5, WindowSegments: 3, WindowStride: 1}
	windows, err := drainStream(t, p.RunStream(context.Background(), replay(day)))
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) < 3 {
		t.Fatalf("sliding stream emitted %d windows, want >= 3", len(windows))
	}
	dayIx := trace.NewIndex(day)
	spanDigest := func(from, to float64) string {
		lo, hi := dayIx.Window(int64(from*1e6), int64(to*1e6))
		return trace.NewIndex(&Trace{Packets: day.Packets[lo:hi]}).Digest()
	}
	check := func(when string) {
		for _, w := range windows {
			if got := w.Index.Digest(); got != spanDigest(w.Start, w.End) {
				t.Fatalf("%s: window %d index no longer holds the stream's packets in [%g,%g)", when, w.Window, w.Start, w.End)
			}
			for _, seg := range w.Segments {
				if got := seg.Index.Digest(); got != spanDigest(seg.Start, seg.End) {
					t.Fatalf("%s: segment %d index no longer holds the stream's packets in [%g,%g)", when, seg.Seq, seg.Start, seg.End)
				}
			}
		}
	}
	check("before churn")

	var full, half bytes.Buffer
	if err := WritePcap(&full, day); err != nil {
		t.Fatal(err)
	}
	if err := WritePcap(&half, &Trace{Packets: day.Packets[:day.Len()/2]}); err != nil {
		t.Fatal(err)
	}
	const churners, cycles = 2, 100
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				data := full.Bytes()
				if i%2 == 1 {
					data = half.Bytes()
				}
				ix, err := DecodePcap(bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				ix.Release()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for churning := true; churning; {
		select {
		case <-done:
			churning = false
		default:
		}
		check("during churn")
	}
	check("after churn")
}

// TestStreamEmptyEndsClean: a stream whose channel closes with no packet
// emits no window and ends without an error.
func TestStreamEmptyEndsClean(t *testing.T) {
	ch := make(chan Packet)
	s := NewPipeline().RunStream(context.Background(), ch)
	close(ch)
	if windows, err := drainStream(t, s); err != nil || len(windows) != 0 {
		t.Fatalf("empty stream = (%d windows, %v), want (0, nil)", len(windows), err)
	}
}
