package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"mawilab/internal/trace"
)

// fullSnaplen is the snaplen refWriter captures whole frames at.
const fullSnaplen = 65535

// refWriter is the per-packet writer this package had before every file it
// wrote was header-only: each packet is one record whose frame is zero-filled
// up to the packet's IP length and captured up to snaplen. At fullSnaplen it
// stands in for a capture from elsewhere that keeps its payload — what the
// Reader's skip path exists for; at strippedSnaplen it is the reference the
// columnar encoder must match.
type refWriter struct {
	w       io.Writer
	snaplen int
}

func newRefWriter(w io.Writer, snaplen int) (*refWriter, error) {
	hdr := make([]byte, globalHeaderLen)
	putGlobalHeader(hdr)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(snaplen))
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &refWriter{w: w, snaplen: snaplen}, nil
}

func (w *refWriter) WritePacket(p *trace.Packet) error {
	_, ipLen := headerDims(p.Proto, p.Len)
	rec := make([]byte, recordHeaderLen+min(etherHeaderLen+ipLen, w.snaplen))
	putRecord(rec, p.TS, p.Src, p.Dst, p.SrcPort, p.DstPort, p.Len, p.Proto, p.Flags)
	if _, err := w.w.Write(rec); err != nil {
		return fmt.Errorf("pcap: writing record: %w", err)
	}
	return nil
}

// fullFrameBytes encodes the packets, in their order, as a full-frame pcap
// stream: refWriter at fullSnaplen.
func fullFrameBytes(t testing.TB, packets []trace.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := newRefWriter(&buf, fullSnaplen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range packets {
		if err := w.WritePacket(&packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// refWriteIndex is the per-packet body WriteIndex had before it encoded from
// the columns — every row through PacketAt and a refWriter — at the snaplen
// the index encoder caps its frames at. EncodeIndex must produce its bytes.
func refWriteIndex(w io.Writer, ix *trace.Index) error {
	pw, err := newRefWriter(w, strippedSnaplen)
	if err != nil {
		return err
	}
	for i, n := 0, ix.Len(); i < n; i++ {
		p := ix.PacketAt(i)
		if err := pw.WritePacket(&p); err != nil {
			return fmt.Errorf("pcap: packet %d: %w", i, err)
		}
	}
	return nil
}

// copyingReader is the Reader as it was before it parsed records in its
// buffer: Next fills a record header with reads of its own, then copies every
// captured byte of the record into a buffer and parses that. The Reader must
// return its packets and its errors.
type copyingReader struct {
	*Reader
	hdrBuf    [recordHeaderLen]byte
	recordBuf []byte
}

func newCopyingReader(r io.Reader) (*copyingReader, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return &copyingReader{Reader: pr, recordBuf: make([]byte, 0, 2048)}, nil
}

// readRecordHeader fills r.hdrBuf. Only here may the stream end: a source
// that reports io.EOF, before the header or part way into it, ends it with
// io.EOF. Any other source error is returned, io.ErrUnexpectedEOF included.
func (r *copyingReader) readRecordHeader() error {
	for n := 0; n < len(r.hdrBuf); {
		m, err := r.br.Read(r.hdrBuf[n:])
		if n += m; n == len(r.hdrBuf) {
			break
		}
		if err == io.EOF {
			return io.EOF
		}
		if err != nil {
			return fmt.Errorf("pcap: reading record header: %w", err)
		}
	}
	return nil
}

func (r *copyingReader) Next() (trace.Packet, error) {
	var p trace.Packet
	if err := r.readRecordHeader(); err != nil {
		return p, err
	}
	hdr := r.hdrBuf[:]
	abs, err := r.recordTS(hdr)
	if err != nil {
		return p, err
	}
	caplen32, origlen := r.uint32(hdr[8:]), r.uint32(hdr[12:])
	if caplen32 > 1<<20 {
		return p, fmt.Errorf("pcap: implausible caplen %d", caplen32)
	}
	if origlen < caplen32 {
		return p, fmt.Errorf("pcap: origlen %d below caplen %d", origlen, caplen32)
	}
	caplen := int(caplen32)
	if cap(r.recordBuf) < caplen {
		r.recordBuf = make([]byte, max(caplen, 2*cap(r.recordBuf), 2048))
	}
	frame := r.recordBuf[:caplen]
	if _, err := io.ReadFull(r.br, frame); err != nil {
		return p, fmt.Errorf("pcap: truncated record: %w", err)
	}
	p.TS = abs - r.baseTS
	if err := decodeFrame(frame, origlen, &p); err != nil {
		return p, err
	}
	return p, nil
}
