package mawilab

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"encoding/xml"
	"errors"
	"math"
	"os"
	"sync"
	"testing"

	wirev1 "mawilab/internal/serve/v1"
	"mawilab/internal/trace"
)

// streamTestDay regenerates the golden fixture's archive day — the same
// trace TestPipelineGolden pins — so the streaming tests can compare against
// the committed batch fixture.
func streamTestDay(t *testing.T) *Trace {
	t.Helper()
	arch := NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	return arch.Day(Date(2004, 5, 10)).Trace
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
// segmented path: for every segment length, the concatenated window CSVs are
// byte-identical to the sequential workers=1 reference.
func TestStreamDeterminismMatrix(t *testing.T) {
	day := streamTestDay(t)
	for _, segSeconds := range []float64{5, 10, 30} {
		var ref []byte
		var refWindows int
		for _, workers := range []int{1, 2, 4, 8} {
			p := NewPipeline().Parallelism(workers)
			p.Stream = StreamConfig{SegmentSeconds: segSeconds, WindowSegments: 2, WindowStride: 1}
			windows, err := drainStream(p.RunStream(context.Background(), replay(day)))
			if err != nil {
				t.Fatalf("segment=%gs workers=%d: %v", segSeconds, workers, err)
			}
			if len(windows) == 0 {
				t.Fatalf("segment=%gs workers=%d: no windows emitted", segSeconds, workers)
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
				t.Errorf("segment=%gs workers=%d: %d windows, sequential reference emitted %d",
					segSeconds, workers, len(windows), refWindows)
			}
			if !bytes.Equal(all.Bytes(), ref) {
				t.Errorf("segment=%gs workers=%d: window CSVs differ from the sequential reference", segSeconds, workers)
			}
		}
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
		lo, hi := dayIx.Window(from, to)
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
