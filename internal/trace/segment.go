package trace

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
)

// Segment is one sealed, immutable span of a packet stream: the columnar
// Index of the packets with timestamps in [Start, End) seconds. Segments are
// index-only — no []Packet survives sealing; consumers that need a row ask
// the Index for it. They are the LSM-style unit of the streaming pipeline:
// packets accumulate in an open segment's IndexBuilder, the segment seals
// when the stream crosses its upper boundary, and from then on the index may
// not be mutated. Everything downstream (per-segment detection, window
// labeling) consumes sealed segments only.
type Segment struct {
	// Seq is the 0-based seal order of the segment within its stream.
	Seq int
	// Start and End bound the segment's time span in seconds, [Start, End).
	// The canonical batch segment (SealTrace, or a SegmentWriter with
	// seconds <= 0) is unbounded: Start 0, End +Inf.
	Start, End float64
	// Index holds the segment's packets, sorted by timestamp. Timestamps
	// stay absolute (stream-relative), not segment-relative, so alarms and
	// window labelings report stream time.
	Index *Index
}

// Len returns the number of packets in the segment.
func (s *Segment) Len() int { return s.Index.Len() }

// String renders a short summary.
func (s *Segment) String() string {
	return fmt.Sprintf("segment %d [%g,%g): %d packets", s.Seq, s.Start, s.End, s.Len())
}

// ErrSegmentWriterClosed is returned by Append after Close.
var ErrSegmentWriterClosed = errors.New("trace: segment writer is closed")

// ErrSegmentLength rejects a segment length that is NaN, infinite, or too
// large to count in int64 microseconds (>= ~9.2e12 s). NewSegmentWriter has
// no error return, so the writer reports it from the first Append and
// Segments yields it before reading a packet.
var ErrSegmentLength = errors.New("trace: segment length must be finite and below 2^63 microseconds")

// SegmentWriter accepts packets incrementally and seals immutable
// fixed-duration segments as the stream crosses segment boundaries. The
// boundaries sit on a fixed grid — segment k spans [k*S, (k+1)*S) seconds
// for segment length S — so a given packet stream always chops into the
// same segments regardless of arrival batching; grid spans that contain no
// packets are skipped rather than sealed empty. Packets must arrive in
// non-decreasing timestamp order with non-negative timestamps (the sorted
// trace model); an out-of-order packet is an error, not a silent re-sort,
// because re-sorting inside a writer would make sealing depend on arrival
// batching.
//
// The segment's Index is built incrementally by an IndexBuilder fed on every
// Append, so sealing only canonicalizes — no second pass over the packets
// (the seal-vs-rebuild tests pin it to the reference build over the same
// packets).
type SegmentWriter struct {
	ctx    context.Context
	stepUS int64 // segment length in microseconds; 0 = one unbounded segment
	err    error // ErrSegmentLength when the requested length is unusable

	b      *IndexBuilder // column build of the open segment; nil when none is open
	bucket int64         // grid ordinal of the open segment
	lastTS int64
	seq    int
	closed bool
}

// NewSegmentWriter returns a writer sealing segments of the given length in
// seconds. seconds <= 0 selects the canonical batch boundary: one unbounded
// segment, sealed only by Close. Positive lengths below 1 µs clamp to 1 µs;
// a non-finite or overflowing length makes every Append fail with
// ErrSegmentLength.
func NewSegmentWriter(ctx context.Context, seconds float64) *SegmentWriter {
	w := &SegmentWriter{ctx: ctx, lastTS: -1}
	switch us := math.Round(seconds * 1e6); {
	case math.IsNaN(seconds) || math.IsInf(seconds, 0) || us >= math.MaxInt64:
		w.err = fmt.Errorf("%w: got %v s", ErrSegmentLength, seconds)
	case seconds > 0:
		w.stepUS = max(int64(us), 1)
	}
	return w
}

// Append adds one packet to the stream. When p crosses the open segment's
// upper boundary the open segment seals — its index is built — and is
// returned; p then starts the next segment. A nil segment means p landed in
// the open segment.
func (w *SegmentWriter) Append(p Packet) (*Segment, error) {
	if w.closed {
		return nil, ErrSegmentWriterClosed
	}
	if w.err != nil {
		return nil, w.err
	}
	// The ordering checks span segment boundaries, so they cannot be left to
	// the per-segment builder: a late packet would seal the open segment
	// before a fresh builder accepted it.
	if p.TS < 0 {
		return nil, fmt.Errorf("%w: negative timestamp %d in segment stream", ErrUnsorted, p.TS)
	}
	if p.TS < w.lastTS {
		return nil, fmt.Errorf("%w: timestamp %d after %d in segment stream", ErrUnsorted, p.TS, w.lastTS)
	}
	w.lastTS = p.TS
	bucket := int64(0)
	if w.stepUS > 0 {
		bucket = p.TS / w.stepUS
	}
	var sealed *Segment
	if w.b != nil && bucket != w.bucket {
		var err error
		if sealed, err = w.seal(); err != nil {
			return nil, err
		}
	}
	if w.b == nil {
		w.b = newDetachedBuilder(0)
		w.bucket = bucket
	}
	if err := w.b.Add(p); err != nil {
		// Unreachable: the ordering checks above are the builder's own.
		return nil, err
	}
	return sealed, nil
}

// Close seals the in-progress segment and returns it, or nil when no packet
// arrived since the last seal. The writer rejects further Appends.
func (w *SegmentWriter) Close() (*Segment, error) {
	if w.closed {
		return nil, ErrSegmentWriterClosed
	}
	w.closed = true
	if w.b == nil {
		return nil, nil
	}
	return w.seal()
}

// seal finalizes the open segment's incrementally-built index and hands the
// segment off; a cancelled context abandons it instead.
func (w *SegmentWriter) seal() (*Segment, error) {
	b := w.b
	w.b = nil
	if err := w.ctx.Err(); err != nil {
		b.Discard()
		return nil, err
	}
	start, end := 0.0, math.Inf(1)
	if w.stepUS > 0 {
		start = float64(w.bucket) * float64(w.stepUS) / 1e6
		end = float64(w.bucket+1) * float64(w.stepUS) / 1e6
	}
	seg := &Segment{Seq: w.seq, Start: start, End: end, Index: b.Finish()}
	w.seq++
	return seg, nil
}

// SealTrace indexes an already-materialized trace as the canonical single
// sealed segment: the whole trace, unbounded span. This is the batch
// boundary — Pipeline.Run/RunContext chop a materialized day at it and
// replay the result through the same engine the streaming path uses, which
// is what keeps batch and stream outputs bit-for-bit interchangeable. A
// trace that is not sorted, or carries a negative timestamp, is rejected
// with an error wrapping ErrUnsorted. The segment does not alias tr.
func SealTrace(ctx context.Context, tr *Trace) (*Segment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix, err := indexPackets(tr.Packets)
	if err != nil {
		return nil, err
	}
	return &Segment{Start: 0, End: math.Inf(1), Index: ix}, nil
}

// WindowIndex builds the index of a window of sealed segments, oldest first:
// the segments' indexes appended in order to one detached builder — columns
// copied whole, each segment's flows interned once — so no []Packet is
// materialized, and the result is structurally identical to indexing the
// concatenated packets. (A one-segment window needs no build: its index is
// the segment's.)
//
// remaps[k][fi] is the window flow id of segment k's flow fi: the canonical
// rank of the provisional id AppendIndex interned that flow under. A
// segment's flow table and the window's share one canonical order, so each
// remap is strictly ascending, and segment k's packet i is the window's
// packet i + o, o the packets of the segments before k. That is what lets the
// engine resolve an alarm's traffic once per segment and carry it into every
// window holding the segment (core.WindowSets) instead of resolving it again
// against each window index.
func WindowIndex(ctx context.Context, segs []*Segment) (ix *Index, remaps [][]int32, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n, nf := 0, 0
	for _, s := range segs {
		n += s.Len()
		nf += len(s.Index.flows)
	}
	b := newDetachedBuilder(n)
	a := b.a
	a.remap = make([]int32, 0, nf)
	for _, s := range segs {
		if err := b.AppendIndex(s.Index); err != nil {
			return nil, nil, err
		}
	}
	ix = b.Finish()
	flat := a.remap
	for i, pid := range flat {
		flat[i] = a.rank[pid]
	}
	remaps = make([][]int32, len(segs))
	for k, s := range segs {
		nf := len(s.Index.flows)
		remaps[k], flat = flat[:nf:nf], flat[nf:]
	}
	return ix, remaps, nil
}

// Segments chops an in-order packet stream into sealed segments: the
// iterator form of SegmentWriter, and the ingest substrate under
// Pipeline.RunStream. It yields each segment as it seals (including the
// final partial segment when the channel closes) and stops at the first
// error — an unusable segment length (ErrSegmentLength, before any packet is
// read), a cancelled context, or an out-of-order packet. Like all Go
// iterators it is single-use and pull-driven: sealing (and the index build
// it implies) happens on the consumer's goroutine.
//
// Each packet costs no two-channel select: the loop first polls ctx.Done()
// without blocking, then tries a non-blocking receive, and only waits on
// both channels when the packet channel is empty. A cancelled context
// therefore ends the stream before the next packet is taken, even from a
// channel that never runs dry.
func Segments(ctx context.Context, packets <-chan Packet, seconds float64) iter.Seq2[*Segment, error] {
	return func(yield func(*Segment, error) bool) {
		w := NewSegmentWriter(ctx, seconds)
		if w.err != nil {
			yield(nil, w.err)
			return
		}
		done := ctx.Done()
		for {
			var (
				p  Packet
				ok bool
			)
			select {
			case <-done:
				yield(nil, ctx.Err())
				return
			default:
			}
			select {
			case p, ok = <-packets:
			default:
				select {
				case <-done:
					yield(nil, ctx.Err())
					return
				case p, ok = <-packets:
				}
			}
			if !ok {
				seg, err := w.Close()
				if err != nil {
					yield(nil, err)
				} else if seg != nil {
					yield(seg, nil)
				}
				return
			}
			seg, err := w.Append(p)
			if err != nil {
				yield(nil, err)
				return
			}
			if seg != nil && !yield(seg, nil) {
				return
			}
		}
	}
}
