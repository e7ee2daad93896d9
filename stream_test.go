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
	"slices"
	"sync"
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

// drainStream collects every window labeling and the terminal error.
func drainStream(s *Stream) ([]*WindowLabeling, error) {
	var out []*WindowLabeling
	for w := range s.Windows() {
		out = append(out, w)
	}
	return out, s.Wait()
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
		windows, err := drainStream(p.RunStream(context.Background(), replay(day)))
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
			windows, err := drainStream(p.RunStream(context.Background(), replay(tc.tr)))
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
				windows, err := drainStream(p.RunStream(context.Background(), replay(tr)))
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
	windows, err := drainStream(p.RunStream(context.Background(), replay(day)))
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
	windows, err := drainStream(p.RunStream(context.Background(), replay(streamTestDay(t))))
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
	for range s.Windows() { // drain until the engine notices the cancel
	}
	if err := s.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// TestStreamCancelledBeforeStart: a stream started under an already-cancelled
// context emits nothing and fails with context.Canceled.
func TestStreamCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewPipeline().RunStream(ctx, make(chan Packet)) // open, empty channel
	windows, err := drainStream(s)
	if len(windows) != 0 {
		t.Errorf("cancelled stream emitted %d windows", len(windows))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
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
		windows, err := drainStream(NewPipeline().RunStream(context.Background(), replay(tr)))
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
	windows, err := drainStream(p.RunStream(context.Background(), replay(day)))
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
	if windows, err := drainStream(s); err != nil || len(windows) != 0 {
		t.Fatalf("empty stream = (%d windows, %v), want (0, nil)", len(windows), err)
	}
}
