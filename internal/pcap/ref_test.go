package pcap

import (
	"fmt"
	"io"

	"mawilab/internal/trace"
)

// refWriteIndex is the per-packet body WriteIndex had before it encoded from
// the columns — every row through PacketAt and a Writer — at the snaplen the
// index encoder caps its frames at. EncodeIndex must produce its bytes.
func refWriteIndex(w io.Writer, ix *trace.Index) error {
	pw, err := NewWriter(w, strippedSnaplen)
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

// copyingReader is the Reader as it was before it skipped payloads: Next
// copies every captured byte of a record into a buffer and parses that. The
// skipping Reader must return its packets and its errors.
type copyingReader struct {
	*Reader
	recordBuf []byte
}

func newCopyingReader(r io.Reader) (*copyingReader, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return &copyingReader{Reader: pr, recordBuf: make([]byte, 0, 2048)}, nil
}

func (r *copyingReader) Next() (trace.Packet, error) {
	var p trace.Packet
	if err := r.readRecordHeader(); err != nil {
		return p, err
	}
	hdr := r.hdrBuf[:]
	sec := int64(r.order.Uint32(hdr[0:]))
	sub := int64(r.order.Uint32(hdr[4:]))
	if r.nanos {
		sub /= 1000
	}
	abs := sec*1e6 + sub
	if !r.haveBase {
		r.baseTS = sec * 1e6
		r.haveBase = true
	}
	caplen32, origlen := r.order.Uint32(hdr[8:]), r.order.Uint32(hdr[12:])
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
	if _, err := io.ReadFull(r.r, frame); err != nil {
		return p, fmt.Errorf("pcap: truncated record: %w", err)
	}
	p.TS = abs - r.baseTS
	if err := decodeFrame(frame, origlen, &p); err != nil {
		return p, err
	}
	return p, nil
}
