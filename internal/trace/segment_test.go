package trace

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// appendAll replays a trace through a writer and collects sealed segments,
// including the final Close seal.
func appendAll(t *testing.T, w *SegmentWriter, tr *Trace) []*Segment {
	t.Helper()
	var segs []*Segment
	for _, p := range tr.Packets {
		seg, err := w.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seg != nil {
			segs = append(segs, seg)
		}
	}
	seg, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if seg != nil {
		segs = append(segs, seg)
	}
	return segs
}

func TestSegmentWriterSealsOnGrid(t *testing.T) {
	// 400 packets at 1ms spacing: 0 .. 0.399s. Grid of 0.1s → 4 segments.
	tr := buildTrace(400, 7)
	w := NewSegmentWriter(context.Background(), 0.1)
	segs := appendAll(t, w, tr)
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4", len(segs))
	}
	total := 0
	for i, s := range segs {
		if s.Seq != i {
			t.Errorf("segment %d: Seq = %d", i, s.Seq)
		}
		// Bounds derive from the integer-microsecond grid, so expectations
		// must too (float64(i)*0.1 accumulates rounding error).
		wantStart := float64(i) * 100000 / 1e6
		wantEnd := float64(i+1) * 100000 / 1e6
		if s.Start != wantStart || s.End != wantEnd {
			t.Errorf("segment %d spans [%g,%g), want [%g,%g)", i, s.Start, s.End, wantStart, wantEnd)
		}
		if s.Len() != 100 {
			t.Errorf("segment %d has %d packets, want 100", i, s.Len())
		}
		lo := int64(s.Start * 1e6)
		for _, ts := range s.Index.TS {
			if ts < lo || ts >= lo+100000 {
				t.Fatalf("segment %d contains TS %d outside [%d,%d)", i, ts, lo, lo+100000)
			}
		}
		total += s.Len()
	}
	if total != tr.Len() {
		t.Errorf("segments carry %d packets, stream had %d", total, tr.Len())
	}
}

// TestSegmentBoundaryExact: a packet exactly on a grid boundary opens the
// next segment — spans are half-open [k*S, (k+1)*S).
func TestSegmentBoundaryExact(t *testing.T) {
	tr := &Trace{}
	tr.Append(Packet{TS: 0})
	tr.Append(Packet{TS: 999_999})
	tr.Append(Packet{TS: 1_000_000}) // exactly 1s: second segment
	w := NewSegmentWriter(context.Background(), 1)
	segs := appendAll(t, w, tr)
	if len(segs) != 2 || segs[0].Len() != 2 || segs[1].Len() != 1 {
		t.Fatalf("segments = %+v, want 2 packets then 1", segs)
	}
}

// TestSegmentWriterSkipsEmptySpans: grid spans with no packets are skipped —
// seq numbers stay dense while Start/End report the real grid position.
func TestSegmentWriterSkipsEmptySpans(t *testing.T) {
	tr := &Trace{}
	tr.Append(Packet{TS: 0})
	tr.Append(Packet{TS: 5_500_000}) // skips spans [1,2)..[5,6) start
	w := NewSegmentWriter(context.Background(), 1)
	segs := appendAll(t, w, tr)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2 (empty spans skipped)", len(segs))
	}
	if segs[0].Seq != 0 || segs[1].Seq != 1 {
		t.Errorf("seqs = %d,%d, want dense 0,1", segs[0].Seq, segs[1].Seq)
	}
	if segs[1].Start != 5 || segs[1].End != 6 {
		t.Errorf("second segment spans [%g,%g), want [5,6)", segs[1].Start, segs[1].End)
	}
}

func TestSegmentWriterRejectsOutOfOrder(t *testing.T) {
	w := NewSegmentWriter(context.Background(), 1)
	if _, err := w.Append(Packet{TS: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Packet{TS: 999}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("out-of-order packet: %v, want ErrUnsorted", err)
	}
	if _, err := w.Append(Packet{TS: -1}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("negative timestamp: %v, want ErrUnsorted", err)
	}
}

func TestSegmentWriterClosed(t *testing.T) {
	w := NewSegmentWriter(context.Background(), 1)
	if seg, err := w.Close(); err != nil || seg != nil {
		t.Fatalf("empty Close = (%v, %v), want (nil, nil)", seg, err)
	}
	if _, err := w.Append(Packet{}); !errors.Is(err, ErrSegmentWriterClosed) {
		t.Fatalf("Append after Close: %v, want ErrSegmentWriterClosed", err)
	}
	if _, err := w.Close(); !errors.Is(err, ErrSegmentWriterClosed) {
		t.Fatalf("double Close: %v, want ErrSegmentWriterClosed", err)
	}
}

// packetsOf materializes an index's rows, for comparison against the
// reference build.
func packetsOf(ix *Index) []Packet {
	ps := make([]Packet, ix.Len())
	for i := range ps {
		ps[i] = ix.PacketAt(i)
	}
	return ps
}

// TestSegmentIndexMatchesDirectBuild: the sealed segments carry exactly the
// stream's packets, in order, and each segment's index is the structure the
// reference build produces over that segment's packets.
func TestSegmentIndexMatchesDirectBuild(t *testing.T) {
	tr := buildTrace(600, 11)
	var all []Packet
	for _, s := range appendAll(t, NewSegmentWriter(context.Background(), 0.15), tr) {
		ps := packetsOf(s.Index)
		if !EqualIndexes(s.Index, BuildIndex(&Trace{Packets: ps})) {
			t.Fatalf("segment %d index differs from the reference build", s.Seq)
		}
		all = append(all, ps...)
	}
	if !reflect.DeepEqual(all, tr.Packets) {
		t.Fatal("segments do not carry the stream's packets in order")
	}
}

func TestSealTraceCanonical(t *testing.T) {
	tr := buildTrace(200, 3)
	seg, err := SealTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Start != 0 || !math.IsInf(seg.End, 1) {
		t.Errorf("canonical segment spans [%g,%g), want [0,+Inf)", seg.Start, seg.End)
	}
	if !EqualIndexes(seg.Index, BuildIndex(tr)) {
		t.Error("canonical segment index differs from the whole-trace reference")
	}
	if seg.Len() != tr.Len() || seg.Index.Digest() != rowDigest(tr) {
		t.Error("canonical segment does not carry the trace's packets")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SealTrace(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SealTrace: %v, want context.Canceled", err)
	}
}

// TestSealTraceRejectsUnsorted: the one deliberate behaviour change of
// routing SealTrace through the builder — a trace outside the sorted model is
// an error, where the map-based build silently produced a wrong index.
func TestSealTraceRejectsUnsorted(t *testing.T) {
	for name, ps := range map[string][]Packet{
		"out of order": {{TS: 2_000_000}, {TS: 1_000_000}},
		"negative":     {{TS: -5}, {TS: 10}},
	} {
		if _, err := SealTrace(context.Background(), &Trace{Packets: ps}); !errors.Is(err, ErrUnsorted) {
			t.Errorf("%s: SealTrace = %v, want ErrUnsorted", name, err)
		}
	}
}

// replayIndexes is the per-packet window build AppendIndex replaced, kept as
// its reference: every packet of every index pushed through Add — one
// PacketAt and one flow-table probe each.
func replayIndexes(ixs []*Index) (*Index, error) {
	n := 0
	for _, ix := range ixs {
		n += ix.Len()
	}
	b := newDetachedBuilder(n)
	for _, ix := range ixs {
		for i := 0; i < ix.Len(); i++ {
			if err := b.Add(ix.PacketAt(i)); err != nil {
				return nil, err
			}
		}
	}
	return b.Finish(), nil
}

// appendIndexes is the same build through AppendIndex, on a detached or a
// pooled builder.
func appendIndexes(ixs []*Index, pooled bool) (*Index, error) {
	b := newDetachedBuilder(0)
	if pooled {
		b = NewIndexBuilder()
	}
	for _, ix := range ixs {
		if err := b.AppendIndex(ix); err != nil {
			b.Discard()
			return nil, err
		}
	}
	return b.Finish(), nil
}

// splitIndexes indexes tr's packets in consecutive pieces ending at the
// given ascending cut points (the last piece runs to the end).
func splitIndexes(tr *Trace, cuts []int) []*Index {
	var ixs []*Index
	lo := 0
	for _, hi := range append(cuts, tr.Len()) {
		ixs = append(ixs, NewIndex(&Trace{Packets: tr.Packets[lo:hi]}))
		lo = hi
	}
	return ixs
}

// TestAppendIndexMatchesReplay pins the bulk append to the per-packet replay
// it replaced: a random trace cut at random points — repeated cuts give
// empty pieces, and a cut may fall between packets of one flow or of one
// timestamp — must build, piece by piece through AppendIndex, the index the
// replay builds and the reference builds over the whole trace. Mixing Add
// and AppendIndex on one builder is the same build too. The seam is checked:
// a piece that starts before the builder's last packet is ErrUnsorted, and a
// finished builder accepts nothing.
func TestAppendIndexMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 80; trial++ {
		tr := indexTestTrace(int64(500+trial), rng.Intn(900))
		cuts := make([]int, rng.Intn(6))
		for i := range cuts {
			cuts[i] = rng.Intn(tr.Len() + 1)
		}
		slices.Sort(cuts)
		if trial%4 == 0 && len(cuts) > 0 {
			cuts = append(cuts, cuts[len(cuts)-1]) // always some empty pieces
		}
		ixs := splitIndexes(tr, cuts)
		want, err := replayIndexes(ixs)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualIndexes(want, BuildIndex(tr)) {
			t.Fatalf("trial %d: the replay differs from the reference build", trial)
		}
		for _, pooled := range []bool{false, true} {
			got, err := appendIndexes(ixs, pooled)
			if err != nil {
				t.Fatal(err)
			}
			if !EqualIndexes(got, want) || got.Digest() != rowDigest(tr) {
				t.Fatalf("trial %d (cuts %v, pooled %v): AppendIndex differs from the per-packet replay", trial, cuts, pooled)
			}
			got.Release()
		}

		// Packets and whole indexes through one builder.
		b := newDetachedBuilder(0)
		for i, ix := range ixs {
			if i%2 == 0 {
				err = b.AppendIndex(ix)
			} else {
				for pi := 0; pi < ix.Len() && err == nil; pi++ {
					err = b.Add(ix.PacketAt(pi))
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !EqualIndexes(b.Finish(), want) {
			t.Fatalf("trial %d: Add mixed with AppendIndex differs from the replay", trial)
		}
	}

	early := NewIndex(&Trace{Packets: []Packet{{TS: 10}, {TS: 20}}})
	late := NewIndex(&Trace{Packets: []Packet{{TS: 19}, {TS: 30}}})
	b := newDetachedBuilder(0)
	if err := b.AppendIndex(early); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendIndex(late); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("overlapping append: %v, want ErrUnsorted", err)
	}
	if len(b.a.ts) != 2 {
		t.Fatalf("a rejected append left %d packets, want 2", len(b.a.ts))
	}
	if _, err := replayIndexes([]*Index{early, late}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("overlapping replay: %v, want ErrUnsorted", err)
	}
	if err := b.AppendIndex(NewIndex(&Trace{Packets: []Packet{{TS: 20}}})); err != nil {
		t.Fatalf("a piece starting on the last timestamp is in order: %v", err)
	}
	b.Finish()
	if err := b.AppendIndex(early); err == nil {
		t.Fatal("AppendIndex after Finish must fail")
	}
	if err := b.AppendIndex(NewIndex(&Trace{})); err == nil {
		t.Fatal("AppendIndex of an empty index after Finish must fail")
	}
}

// TestWindowIndexMatchesReference is the window-index differential: random
// streams are chopped by the real SegmentWriter into 1-5 segments — with
// empty grid spans between them and always one single-packet segment — and
// the window index built from the segments' indexes must be structurally
// identical to the reference build over the concatenated packets.
func TestWindowIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(5)
		spans := rng.Perm(9)[:k] // occupied 1 s grid spans out of 9: gaps are the rule
		single := rng.Intn(k)
		tr := &Trace{}
		for si, span := range spans {
			n := 1
			if si != single {
				n = 2 + rng.Intn(300)
			}
			for i := 0; i < n; i++ {
				tr.Append(Packet{
					TS:      int64(span)*1e6 + int64(rng.Intn(1e6)),
					Src:     MakeIPv4(10, 0, 0, byte(rng.Intn(12))),
					Dst:     MakeIPv4(192, 168, 0, byte(rng.Intn(12))),
					SrcPort: uint16(1024 + rng.Intn(8)),
					DstPort: uint16(rng.Intn(4)*1111 + 80),
					Len:     uint16(40 + rng.Intn(1460)),
					Proto:   []Proto{TCP, UDP, ICMP}[rng.Intn(3)],
					Flags:   TCPFlags(rng.Intn(256)),
				})
			}
		}
		tr.Sort()
		segs := appendAll(t, NewSegmentWriter(context.Background(), 1), tr)
		if len(segs) != k {
			t.Fatalf("trial %d: sealed %d segments, want %d", trial, len(segs), k)
		}
		ix, _, err := WindowIndex(context.Background(), segs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !EqualIndexes(ix, BuildIndex(tr)) {
			t.Fatalf("trial %d (%d segments): window index differs from the reference over the concatenated packets", trial, k)
		}
		if ix.Digest() != rowDigest(tr) {
			t.Fatalf("trial %d: window digest differs from the stream's", trial)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	two := appendAll(t, NewSegmentWriter(context.Background(), 0.1), buildTrace(200, 3))[:2]
	if _, _, err := WindowIndex(ctx, two); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WindowIndex: %v, want context.Canceled", err)
	}
}

// TestSegmentLengthValidation: NaN used to mean one silent unbounded segment
// and +Inf / >= ~9.2e12 s overflowed the microsecond step to a negative
// number (every packet in bucket 0, End < Start). Both the writer and the
// iterator must refuse them; tiny, zero and negative lengths keep their
// documented meaning.
func TestSegmentLengthValidation(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		bad     bool
		end     float64 // End of the segment holding a packet at t=0
	}{
		{math.NaN(), true, 0},
		{math.Inf(1), true, 0},
		{math.Inf(-1), true, 0},
		{1e13, true, 0},
		{9e12, false, 9e12},
		{1e-9, false, 1e-6}, // clamps to 1 µs
		{0, false, math.Inf(1)},
		{-3, false, math.Inf(1)},
	} {
		w := NewSegmentWriter(context.Background(), tc.seconds)
		_, err := w.Append(Packet{TS: 0})
		// An empty, closed stream: only a rejected length yields anything.
		empty := make(chan Packet)
		close(empty)
		var iterErr error
		for _, err := range Segments(context.Background(), empty, tc.seconds) {
			iterErr = err
		}
		if tc.bad {
			if !errors.Is(err, ErrSegmentLength) || !errors.Is(iterErr, ErrSegmentLength) {
				t.Errorf("seconds=%v: Append = %v, Segments = %v, want ErrSegmentLength from both", tc.seconds, err, iterErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("seconds=%v: Append = %v", tc.seconds, err)
			continue
		}
		seg, err := w.Close()
		if err != nil || seg == nil || seg.Start != 0 || seg.End != tc.end {
			t.Errorf("seconds=%v: sealed %v (err %v), want [0,%g)", tc.seconds, seg, err, tc.end)
		}
	}
}

// replayChan fills a buffered channel with the trace's packets and closes
// it, so iterator consumers never need a producer goroutine.
func replayChan(tr *Trace) <-chan Packet {
	ch := make(chan Packet, tr.Len())
	for _, p := range tr.Packets {
		ch <- p
	}
	close(ch)
	return ch
}

func TestSegmentsIteratorMatchesWriter(t *testing.T) {
	tr := buildTrace(500, 5)
	want := appendAll(t, NewSegmentWriter(context.Background(), 0.12), tr)
	var got []*Segment
	for seg, err := range Segments(context.Background(), replayChan(tr), 0.12) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, seg)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iterator sealed %d segments, writer %d — or contents differ", len(got), len(want))
	}
}

func TestSegmentsIteratorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Channel left open and empty: only the context can end the iteration.
	ch := make(chan Packet)
	var sawErr error
	for seg, err := range Segments(ctx, ch, 1) {
		if seg != nil {
			t.Fatal("segment yielded under a cancelled context")
		}
		sawErr = err
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
	}
}

// TestSegmentsIteratorCancelledFullChannel: under an already-cancelled
// context the iterator ends with context.Canceled before it takes a packet,
// although a non-blocking receive would find a full channel. A receive path
// that skipped the Done check would drain the channel instead (the writer
// only checks the context when a segment seals, so the 0 s length below —
// one unbounded segment — leaves the check to the iterator alone).
func TestSegmentsIteratorCancelledFullChannel(t *testing.T) {
	const n = 1000
	ch := make(chan Packet, n)
	for i := 0; i < n; i++ {
		ch <- Packet{TS: int64(i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sawErr error
	for seg, err := range Segments(ctx, ch, 0) {
		if seg != nil {
			t.Fatal("segment yielded under a cancelled context")
		}
		sawErr = err
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
	}
	if len(ch) != n {
		t.Fatalf("iterator consumed %d packets under a cancelled context, want 0", n-len(ch))
	}
}

// TestSegmentsIteratorCancelMidStream: a producer keeps a 1 024-slot
// channel full, and the context is cancelled partway, while the channel is
// full and the consumer is between two segments. Every packet is a second
// apart, so every packet seals a segment and the consumer's loop body runs
// once per packet; there it waits for the producer to fill the channel, then
// cancels. The iterator must end with context.Canceled without taking one
// more packet — a receive path that skipped the Done check would take one —
// long before the producer runs out.
func TestSegmentsIteratorCancelMidStream(t *testing.T) {
	const (
		capacity = 1024
		total    = 100000
		cancelAt = 100 // segments yielded before the cancel
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan Packet, capacity)
	quit := make(chan struct{})
	var sent atomic.Int64
	done := make(chan struct{})
	go func() { //mawilint:allow baregoroutine — test producer, joined through done
		defer close(done)
		for i := int64(0); i < total; i++ {
			select {
			case ch <- Packet{TS: i * 1e6}:
				sent.Add(1)
			case <-quit:
				return
			}
		}
		close(ch)
	}()
	var (
		sawErr error
		segs   int
	)
	for _, err := range Segments(ctx, ch, 1) {
		if err != nil {
			sawErr = err
			continue
		}
		if segs++; segs == cancelAt {
			for len(ch) < capacity {
				runtime.Gosched()
			}
			cancel()
		}
	}
	close(quit)
	<-done
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
	}
	// Segment k seals when packet k+1 arrives: cancelAt segments took
	// cancelAt+1 packets.
	if taken := sent.Load() - int64(len(ch)); taken != cancelAt+1 {
		t.Fatalf("iterator took %d packets after the cancellation, want 0", taken-(cancelAt+1))
	}
	if sent.Load() >= total {
		t.Fatalf("producer sent all %d packets before the iterator saw the cancellation", total)
	}
}

func TestSegmentsIteratorPropagatesAppendError(t *testing.T) {
	tr := &Trace{}
	tr.Append(Packet{TS: 2000})
	tr.Append(Packet{TS: 1000}) // out of order
	var sawErr error
	for _, err := range Segments(context.Background(), replayChan(tr), 1) {
		if err != nil {
			sawErr = err
		}
	}
	if sawErr == nil {
		t.Fatal("out-of-order stream did not surface an error")
	}
}

// TestSegmentsIteratorEarlyBreak: the consumer may stop mid-stream without
// touching remaining packets — the iterator contract RunStream relies on
// when a window consumer cancels.
func TestSegmentsIteratorEarlyBreak(t *testing.T) {
	tr := buildTrace(400, 9)
	n := 0
	for _, err := range Segments(context.Background(), replayChan(tr), 0.1) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d segments, want 2", n)
	}
}
