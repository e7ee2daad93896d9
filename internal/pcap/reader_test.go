package pcap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"mawilab/internal/trace"
)

// drain calls next until it fails and returns the packets and the error that
// ended the stream (io.EOF for a clean end).
func drain(next func() (trace.Packet, error)) ([]trace.Packet, error) {
	var ps []trace.Packet
	for {
		p, err := next()
		if err != nil {
			return ps, err
		}
		ps = append(ps, p)
	}
}

// bufferSizes are the caller bufio.Reader sizes the Reader is fed through:
// bufio's smallest, around one stripped record (70 bytes), around the largest
// header plus frame prefix it parses (minBufferLen, 110 bytes: a buffer below
// it is wrapped in one of the Reader's own, one at or above it is read
// directly) and bufio's usual 64 KiB.
var bufferSizes = []int{16, 69, 70, 71, minBufferLen - 1, minBufferLen, minBufferLen + 1, 64 << 10}

// source is one way of handing a stream to NewReader.
type source struct {
	name string
	r    io.Reader
}

// readerSources returns base's bytes as every kind of source the Reader
// meets: memory, a reader that yields one byte per Read, and a caller's
// bufio.Reader of each of bufferSizes — also one of minBufferLen over
// one-byte reads, which refills mid-record. base must return a fresh reader
// over the same stream on each call.
func readerSources(base func() io.Reader) []source {
	given := base()
	srcs := []source{
		{fmt.Sprintf("%T", given), given},
		{"one byte", iotest.OneByteReader(base())},
		{fmt.Sprintf("bufio.Reader(%d) over one byte", minBufferLen), bufio.NewReaderSize(iotest.OneByteReader(base()), minBufferLen)},
	}
	for _, size := range bufferSizes {
		srcs = append(srcs, source{fmt.Sprintf("bufio.Reader(%d)", size), bufio.NewReaderSize(base(), size)})
	}
	return srcs
}

// checkReaderEquivalence reads data with the copying reference and with the
// Reader over every source of readerSources, and requires the same packets
// and the same error: the same text, and the same io.EOF / io.ErrUnexpectedEOF
// identity.
func checkReaderEquivalence(t testing.TB, data []byte) {
	t.Helper()
	ref, refErr := newCopyingReader(bytes.NewReader(data))
	sources := readerSources(func() io.Reader { return bytes.NewReader(data) })
	if refErr != nil {
		for _, src := range sources {
			if _, err := NewReader(src.r); err == nil || err.Error() != refErr.Error() {
				t.Fatalf("%s: NewReader = %v, reference %v", src.name, err, refErr)
			}
		}
		return
	}
	want, wantErr := drain(ref.Next)
	for _, src := range sources {
		name := src.name
		r, err := NewReader(src.r)
		if err != nil {
			t.Fatalf("%s: NewReader: %v", name, err)
		}
		got, gotErr := drain(r.Next)
		if len(got) != len(want) {
			t.Fatalf("%s: %d packets, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: packet %d = %+v, reference %+v", name, i, got[i], want[i])
			}
		}
		if gotErr.Error() != wantErr.Error() ||
			(gotErr == io.EOF) != (wantErr == io.EOF) ||
			errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) ||
			errors.Is(gotErr, io.EOF) != errors.Is(wantErr, io.EOF) {
			t.Fatalf("%s: stream ended with %v, reference %v", name, gotErr, wantErr)
		}
	}
}

// rawRecord is one little-endian pcap record around an arbitrary frame.
func rawRecord(sec, usec, origlen uint32, frame []byte) []byte {
	rec := make([]byte, recordHeaderLen, recordHeaderLen+len(frame))
	le := binary.LittleEndian
	le.PutUint32(rec[0:], sec)
	le.PutUint32(rec[4:], usec)
	le.PutUint32(rec[8:], uint32(len(frame)))
	le.PutUint32(rec[12:], origlen)
	return append(rec, frame...)
}

// withIPOptions returns frame (Ethernet + option-less IPv4 + rest) with
// 4·(ihl−5) option bytes spliced in behind the IPv4 header and IHL raised to
// match, so the transport header sits past the first 54 bytes.
func withIPOptions(frame []byte, ihl int) []byte {
	opts := bytes.Repeat([]byte{1}, 4*(ihl-5)) // IPv4 no-operation options
	out := append([]byte{}, frame[:etherHeaderLen+ipv4HeaderLen]...)
	out = append(out, opts...)
	out = append(out, frame[etherHeaderLen+ipv4HeaderLen:]...)
	out[etherHeaderLen] = 0x40 | byte(ihl)
	return out
}

// TestSkippingReaderMatchesCopying: Reader.Next parses a bounded header
// prefix and skips the rest of each record; on every stream the copying
// reference can be handed it must return the same packets and end with the
// same error — also when the stream is cut at any byte of its last record.
func TestSkippingReaderMatchesCopying(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := &trace.Trace{}
	for i := 0; i < 60; i++ {
		tr.Append(randomPacket(rng, i))
	}
	tr.Append(trace.Packet{TS: 70_000, Proto: trace.TCP, SrcPort: 4000, DstPort: 443, Flags: 0x18, Len: 300})
	full := fullFrameBytes(t, tr.Packets)

	// One full-payload frame per transport to rebuild by hand.
	frames := map[trace.Proto][]byte{}
	for _, p := range []trace.Packet{
		{Proto: trace.TCP, Src: 0x0a000001, Dst: 0x0a000002, SrcPort: 1025, DstPort: 80, Flags: 0x12, Len: 900},
		{Proto: trace.UDP, Src: 0x0a000003, Dst: 0x0a000004, SrcPort: 53, DstPort: 5353, Len: 300},
		{Proto: trace.ICMP, Src: 0x0a000005, Dst: 0x0a000006, SrcPort: 8, DstPort: 0, Len: 84},
		{Proto: trace.Proto(47), Src: 0x0a000007, Dst: 0x0a000008, Len: 120},
	} {
		enc := fullFrameBytes(t, []trace.Packet{p})
		frames[p.Proto] = enc[globalHeaderLen+recordHeaderLen:]
	}
	header := full[:globalHeaderLen]
	stream := func(recs ...[]byte) []byte {
		return append(append([]byte{}, header...), bytes.Join(recs, nil)...)
	}
	tcp, udp, icmp, gre := frames[trace.TCP], frames[trace.UDP], frames[trace.ICMP], frames[trace.Proto(47)]

	cases := map[string][]byte{
		"full payload": full,
		"header only":  EncodeIndex(trace.NewIndex(tr)),
		"ip options": stream(
			rawRecord(5, 1, uint32(len(tcp))+40, withIPOptions(tcp, 15)),
			rawRecord(5, 2, uint32(len(udp))+4, withIPOptions(udp, 6)),
			rawRecord(5, 3, uint32(len(icmp))+12, withIPOptions(icmp, 8)),
			rawRecord(5, 4, uint32(len(gre))+40, withIPOptions(gre, 15)),
			// Options that run to the end of the capture: no transport bytes.
			rawRecord(5, 5, 2000, withIPOptions(tcp, 15)[:etherHeaderLen+60]),
			rawRecord(5, 6, 2000, withIPOptions(tcp, 15)[:etherHeaderLen+60+13]),
		),
		"caplen below the headers": stream(
			rawRecord(9, 0, 914, tcp[:etherHeaderLen+ipv4HeaderLen]),
			rawRecord(9, 1, 914, tcp[:etherHeaderLen+ipv4HeaderLen+13]),
			rawRecord(9, 2, 314, udp[:etherHeaderLen+ipv4HeaderLen+3]),
			rawRecord(9, 3, 98, icmp[:etherHeaderLen+ipv4HeaderLen+1]),
			rawRecord(9, 4, 914, tcp[:maxHeaderLen]),
			rawRecord(9, 5, 914, tcp[:maxHeaderLen+1]),
		),
		"frame too short":    stream(rawRecord(1, 0, 60, tcp[:etherHeaderLen+ipv4HeaderLen-1]), rawRecord(1, 1, 60, tcp)),
		"empty record":       stream(rawRecord(1, 0, 60, nil)),
		"ihl past the frame": stream(rawRecord(1, 0, 60, withIPOptions(tcp, 15)[:etherHeaderLen+40])),
		"implausible caplen": append(stream(rawRecord(1, 0, uint32(len(tcp)), tcp)), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x20, 0, 0, 0, 0, 0),
		"no records":         stream(),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			checkReaderEquivalence(t, data)
			// Every cut of the last record, its header included, and of
			// the byte before it — on the stream's last two records, so a
			// long stream is not re-read per cut.
			offs := recordOffsets(data)
			if len(offs) > 2 {
				data = stream(data[offs[len(offs)-2]:])
				offs = recordOffsets(data)
			}
			last := len(data)
			if len(offs) > 0 {
				last = offs[len(offs)-1]
			}
			for cut := last - 1; cut < len(data); cut++ {
				checkReaderEquivalence(t, data[:cut])
			}
		})
	}
}

// recordOffsets walks the little-endian stream's caplens and returns where
// each record header begins; a caplen that runs past the end ends the walk.
func recordOffsets(data []byte) []int {
	var offs []int
	for off := globalHeaderLen; off+recordHeaderLen <= len(data); {
		offs = append(offs, off)
		caplen := int(binary.LittleEndian.Uint32(data[off+8:]))
		if caplen > len(data) {
			break
		}
		off += recordHeaderLen + caplen
	}
	return offs
}

// TestTruncatedRecordErrors pins the ways a cut record surfaces: a record
// header that is not all there ends the stream cleanly, a frame that is not
// all there is an error wrapping how the read failed — io.EOF when nothing of
// the frame arrived, io.ErrUnexpectedEOF when part of it did, whether the cut
// falls in the parsed prefix or in the skipped payload. Only a source that
// reports io.EOF ends a stream: one that fails instead, as a request body cut
// short of its Content-Length fails with io.ErrUnexpectedEOF, is an error at
// a record boundary and inside a record header alike. Every source of
// readerSources must agree.
func TestTruncatedRecordErrors(t *testing.T) {
	data := fullFrameBytes(t, []trace.Packet{{Proto: trace.TCP, Len: 1000}})
	frameStart := globalHeaderLen + recordHeaderLen
	for _, c := range []struct {
		cut  int
		want error
	}{
		{globalHeaderLen + 5, io.EOF},
		{frameStart, io.EOF},
		{frameStart + 10, io.ErrUnexpectedEOF},
		{frameStart + maxHeaderLen, io.ErrUnexpectedEOF},
		{len(data) - 1, io.ErrUnexpectedEOF},
	} {
		for _, src := range readerSources(func() io.Reader { return bytes.NewReader(data[:c.cut]) }) {
			r, err := NewReader(src.r)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.Next()
			if !errors.Is(err, c.want) {
				t.Errorf("cut at %d (%s): got %v, want %v", c.cut, src.name, err, c.want)
			}
			if headerCut := c.cut < frameStart; (err == io.EOF) != headerCut {
				t.Errorf("cut at %d (%s): bare io.EOF = %v, want %v", c.cut, src.name, err == io.EOF, headerCut)
			}
		}
	}
	for _, cut := range []int{globalHeaderLen, globalHeaderLen + 5} {
		for _, srcErr := range []error{io.ErrUnexpectedEOF, errors.New("connection reset")} {
			failing := func() io.Reader { return io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(srcErr)) }
			for _, src := range readerSources(failing) {
				r, err := NewReader(src.r)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Next(); err == io.EOF || !errors.Is(err, srcErr) {
					t.Errorf("%s failing with %v after %d bytes: got %v, want that error", src.name, srcErr, cut, err)
				}
			}
		}
	}
}

// TestSubSecondFieldRejected: a record whose sub-second field is a whole
// second or more — 10⁶ under the microsecond magic, 10⁹ under the nanosecond
// one — fails Next, from memory and through a bufio.Reader alike, instead of
// reading back as a later second; the largest valid field reads.
func TestSubSecondFieldRejected(t *testing.T) {
	frame := fullFrameBytes(t, []trace.Packet{{Proto: trace.UDP, Len: 60}})[globalHeaderLen+recordHeaderLen:]
	header := func(magic uint32) []byte {
		h := make([]byte, globalHeaderLen)
		putGlobalHeader(h)
		binary.LittleEndian.PutUint32(h, magic)
		return h
	}
	for _, c := range []struct {
		magic uint32
		sub   uint32
		ok    bool
	}{
		{magicMicros, 999_999, true},
		{magicMicros, 1_000_000, false},
		{magicMicros, 4_294_967_295, false},
		{0xa1b23c4d, 999_999_999, true},
		{0xa1b23c4d, 1_000_000_000, false},
	} {
		data := append(header(c.magic), rawRecord(7, c.sub, uint32(len(frame)), frame)...)
		for _, src := range []io.Reader{bytes.NewReader(data), bufio.NewReader(bytes.NewReader(data))} {
			r, err := NewReader(src)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.Next()
			if (err == nil) != c.ok {
				t.Errorf("magic %#x, sub-second field %d (%T): Next error %v, want ok=%v", c.magic, c.sub, src, err, c.ok)
			}
		}
	}
}

// TestWritersAllocateNothingPerPacket: WriteTrace and EncodeIndex each make
// the file and nothing else — one allocation whatever the packet count.
func TestWritersAllocateNothingPerPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := &trace.Trace{}
	for i := 0; i < 2000; i++ {
		tr.Append(randomPacket(rng, i))
	}
	for _, n := range []int{10, 2000} {
		rows := &trace.Trace{Packets: tr.Packets[:n]}
		if got := testing.AllocsPerRun(20, func() {
			if err := WriteTrace(io.Discard, rows); err != nil {
				t.Fatal(err)
			}
		}); got != 1 {
			t.Errorf("WriteTrace of %d packets: %v allocs, want 1 (the file)", n, got)
		}
		ix := trace.NewIndex(rows)
		if got := testing.AllocsPerRun(20, func() { sinkBytes = EncodeIndex(ix) }); got != 1 {
			t.Errorf("EncodeIndex of %d packets: %v allocs, want 1 (the result)", n, got)
		}
	}
}

var sinkBytes []byte
