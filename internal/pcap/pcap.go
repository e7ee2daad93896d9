// Package pcap reads and writes classic libpcap capture files using only
// the standard library, and converts between on-the-wire frames and the
// in-memory trace.Packet model.
//
// Only the subset needed by the MAWILab pipeline is implemented: the classic
// (non-ng) file format with Ethernet link type, and Ethernet/IPv4 framing of
// TCP, UDP and ICMP. This matches the MAWI archive contents the paper
// consumes (anonymized IPv4 headers, payloads stripped).
//
// Payload is never parsed, so it is never kept: every file this package
// writes (EncodeIndex, WriteTrace) is header-only, and the Reader parses a
// record's header prefix where its buffer holds it and skips the rest — of a
// full-frame capture from elsewhere too.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"mawilab/internal/trace"
)

// Classic pcap global header constants.
const (
	magicMicros   = 0xa1b2c3d4 // microsecond timestamps, native order
	versionMajor  = 2
	versionMinor  = 4
	linkTypeEther = 1

	globalHeaderLen = 24
	recordHeaderLen = 16

	etherHeaderLen = 14
	etherTypeIPv4  = 0x0800
	ipv4HeaderLen  = 20
	tcpHeaderLen   = 20
	udpHeaderLen   = 8
	icmpHeaderLen  = 8
)

// ErrNotPcap is returned when the global header magic is unrecognized.
var ErrNotPcap = errors.New("pcap: bad magic number")

// putGlobalHeader fills the zeroed hdr[:globalHeaderLen] with the classic
// pcap file header: microsecond timestamps, little-endian, Ethernet,
// snaplen strippedSnaplen.
func putGlobalHeader(hdr []byte) {
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], magicMicros)
	le.PutUint16(hdr[4:], versionMajor)
	le.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs = 0
	le.PutUint32(hdr[16:], strippedSnaplen)
	le.PutUint32(hdr[20:], linkTypeEther)
}

// headerDims returns the transport header length the encoder synthesizes
// for a packet of the given protocol, and the IP length its frame declares:
// the packet's, but at least the headers.
func headerDims(proto trace.Proto, pktLen uint16) (transportLen, ipLen int) {
	switch proto {
	case trace.TCP:
		transportLen = tcpHeaderLen
	case trace.UDP:
		transportLen = udpHeaderLen
	case trace.ICMP:
		transportLen = icmpHeaderLen
	}
	return transportLen, max(ipv4HeaderLen+transportLen, int(pktLen))
}

// strippedSnaplen is the snaplen every file this package writes is captured
// at: Ethernet, an option-less IPv4 header and the longest transport header
// the encoder synthesizes — every byte decodeFrame reads of such a frame, and
// none of the payload.
const strippedSnaplen = etherHeaderLen + ipv4HeaderLen + tcpHeaderLen

// frameLen returns how much of a packet's synthesized frame its record
// captures: the frame up to strippedSnaplen bytes.
func frameLen(proto trace.Proto, pktLen uint16) int {
	_, ipLen := headerDims(proto, pktLen)
	return min(etherHeaderLen+ipLen, strippedSnaplen)
}

// putRecord fills rec — zeroed, recordHeaderLen plus at least frameLen bytes
// — with one packet's pcap record: the record header, then the Ethernet, IPv4
// and transport headers. Only non-zero bytes are stored: MACs stay zero
// (anonymized), and so does everything past the headers. The caplen is what
// rec holds past the record header, the origlen the wire length. It takes the
// fields rather than a trace.Packet so that the index encoder feeds it
// straight from the columns.
func putRecord(rec []byte, ts int64, src, dst trace.IPv4, srcPort, dstPort, pktLen uint16, proto trace.Proto, flags trace.TCPFlags) {
	_, ipLen := headerDims(proto, pktLen)
	le := binary.LittleEndian
	caplen := uint32(len(rec) - recordHeaderLen)
	le.PutUint32(rec[0:], uint32(ts/1e6))
	le.PutUint32(rec[4:], uint32(ts%1e6))
	le.PutUint32(rec[8:], caplen)
	le.PutUint32(rec[12:], max(etherHeaderLen+uint32(pktLen), caplen))

	be := binary.BigEndian
	b := rec[recordHeaderLen:]
	be.PutUint16(b[12:], etherTypeIPv4)
	ip := b[etherHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	be.PutUint16(ip[2:], uint16(ipLen))
	ip[8] = 64 // TTL
	ip[9] = byte(proto)
	be.PutUint32(ip[12:], uint32(src))
	be.PutUint32(ip[16:], uint32(dst))
	tp := ip[ipv4HeaderLen:]
	switch proto {
	case trace.TCP:
		be.PutUint16(tp[0:], srcPort)
		be.PutUint16(tp[2:], dstPort)
		tp[12] = 5 << 4 // data offset
		tp[13] = byte(flags)
	case trace.UDP:
		be.PutUint16(tp[0:], srcPort)
		be.PutUint16(tp[2:], dstPort)
		be.PutUint16(tp[4:], uint16(ipLen-ipv4HeaderLen))
	case trace.ICMP:
		tp[0] = uint8(srcPort) // type
		tp[1] = uint8(dstPort) // code
	}
}

// WriteTrace writes tr's packets, in their order, to w as the payload-stripped
// file EncodeIndex returns, in one Write: for a sorted trace it is
// EncodeIndex(trace.NewIndex(tr)) byte for byte, and any other row order is
// written as given. A negative timestamp has no record form — its
// microsecond field would wrap past a second — so it fails with an error
// wrapping trace.ErrUnsorted, as IndexBuilder.Add does, and nothing is
// written.
func WriteTrace(w io.Writer, tr *trace.Trace) error {
	buf := make([]byte, globalHeaderLen, globalHeaderLen+(recordHeaderLen+strippedSnaplen)*tr.Len())
	putGlobalHeader(buf)
	for i := range tr.Packets {
		p := &tr.Packets[i]
		if p.TS < 0 {
			return fmt.Errorf("pcap: packet %d: %w: negative timestamp %d", i, trace.ErrUnsorted, p.TS)
		}
		off := len(buf)
		buf = buf[:off+recordHeaderLen+frameLen(p.Proto, p.Len)]
		putRecord(buf[off:], p.TS, p.Src, p.Dst, p.SrcPort, p.DstPort, p.Len, p.Proto, p.Flags)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("pcap: writing trace: %w", err)
	}
	return nil
}

// EncodedLen returns the exact length of EncodeIndex(ix): the global header
// plus, per packet, a record header and the frame captured at
// strippedSnaplen — at most 24 + 70 bytes per packet.
func EncodedLen(ix *trace.Index) int {
	n := globalHeaderLen + recordHeaderLen*ix.Len()
	for i, proto := range ix.Proto {
		n += frameLen(proto, ix.PktLen[i])
	}
	return n
}

// EncodeIndex returns ix as a payload-stripped classic pcap file: each
// record's caplen capped at the headers and its origlen still the wire
// length — MAWI's own published form, and the only form this package writes.
// It decodes (DecodeIndex, ReadTrace) to an index equal to ix, with the same
// Digest, when ix starts within its first second (the reader rebases to that
// boundary) and no packet is shorter than the headers synthesized for it
// (the format stores no smaller length) — true of every index decoded from a
// pcap. The records go straight from the columns into one buffer of
// EncodedLen(ix) bytes.
func EncodeIndex(ix *trace.Index) []byte {
	buf := make([]byte, EncodedLen(ix))
	putGlobalHeader(buf)
	off := globalHeaderLen
	for i, proto := range ix.Proto {
		end := off + recordHeaderLen + frameLen(proto, ix.PktLen[i])
		putRecord(buf[off:end], ix.TS[i], ix.Src[i], ix.Dst[i], ix.SrcPort[i], ix.DstPort[i], ix.PktLen[i], proto, ix.Flags[i])
		off = end
	}
	return buf
}

// WriteIndex writes EncodeIndex(ix) to w in one Write.
func WriteIndex(w io.Writer, ix *trace.Index) error {
	if _, err := w.Write(EncodeIndex(ix)); err != nil {
		return fmt.Errorf("pcap: writing index: %w", err)
	}
	return nil
}

// maxHeaderLen is the most of a frame decodeFrame looks at: Ethernet, the
// longest IPv4 header (IHL 15) and a TCP header.
const maxHeaderLen = etherHeaderLen + 15*4 + tcpHeaderLen

// minBufferLen is the smallest buffer Next can parse a record in: its header
// and the longest frame prefix decodeFrame reads.
const minBufferLen = recordHeaderLen + maxHeaderLen

// bufferLen is the size of the buffer a Reader reads any other source
// through.
const bufferLen = 64 << 10

// Reader decodes a classic pcap stream back into trace packets.
type Reader struct {
	br *bufio.Reader
	// win is what br held past the last record Next read from br itself, as
	// one Peek; the records wholly inside it are parsed there, and used
	// counts their bytes, which br has yet to discard.
	win      []byte
	used     int
	swapped  bool // the file is big-endian: every header field is byte-swapped
	nanos    bool
	baseTS   int64 // second boundary of the first packet, absolute micros
	haveBase bool
}

// NewReader validates the global header and returns a Reader. Both byte
// orders and both microsecond/nanosecond magics are accepted. The Reader
// reads through a bufio.Reader — r itself when r is one that holds a record
// header and the longest frame prefix Next parses (110 bytes), else a 64 KiB
// buffer of its own around r, a *bytes.Reader included. Next parses each
// record where the buffer holds it. Either way r belongs to the Reader until
// it is done with it: the Reader reads r beyond the records it has returned,
// and a bufio.Reader r passed in may still hold, unconsumed, records Next has
// already returned, so its position is undefined until Next returns io.EOF.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Size() < minBufferLen {
		br = bufio.NewReaderSize(r, bufferLen)
	}
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	pr := &Reader{br: br}
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case magicMicros:
	case 0xa1b23c4d:
		pr.nanos = true
	default:
		switch binary.BigEndian.Uint32(hdr[0:]) {
		case magicMicros:
		case 0xa1b23c4d:
			pr.nanos = true
		default:
			return nil, ErrNotPcap
		}
		pr.swapped = true
	}
	if lt := pr.uint32(hdr[20:]); lt != linkTypeEther {
		return nil, fmt.Errorf("pcap: unsupported link type %d (want Ethernet)", lt)
	}
	return pr, nil
}

// uint32 reads a header field in the file's byte order.
func (r *Reader) uint32(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	if r.swapped {
		v = bits.ReverseBytes32(v)
	}
	return v
}

// Next returns the next packet, or io.EOF at the end of the stream.
// Timestamps are rebased to the whole-second boundary containing the first
// packet, matching the trace model's "microseconds since trace start":
// capture slots begin on second boundaries (MAWI's daily traces start at a
// fixed wall-clock time), so the first packet's sub-second arrival offset
// is genuine signal and survives the round trip, while the absolute epoch
// does not leak into the relative timeline. A record whose origlen is below
// its caplen is an error: a capture is never longer than the packet on the
// wire, and every record this package writes says so. So is a sub-second
// field of a whole second or more, which would read as a later second.
//
// Records are parsed where the buffer holds them: one Peek takes in every
// whole record the buffer holds, each record's header and the frame prefix
// decodeFrame reads are decoded in place, and the buffer discards what was
// parsed once it must refill. A record the buffer does not hold whole is
// peeked alone, its header and prefix, and then discarded. Nothing is copied
// out of the buffer, and the payload of a full-frame capture — nine bytes in
// ten — is never looked at. Only the record header may end the stream: a
// source that reports io.EOF before or part way into it (a file cut
// mid-header) ends it with io.EOF. Any other source error is returned,
// io.ErrUnexpectedEOF included — it is how a request body that stops short
// of its Content-Length ends, and the records read so far are not the trace
// that was sent. A frame cut short is an error wrapping io.EOF when none of
// it arrived and io.ErrUnexpectedEOF when part of it did.
func (r *Reader) Next() (trace.Packet, error) {
	var p trace.Packet
	err := r.next(&p)
	return p, err
}

// next is Next into *p, which it overwrites whole: the loops that ingest a
// stream (DecodeIndex, ReadTrace) reuse one Packet rather than copy each out
// of a return value.
func (r *Reader) next(p *trace.Packet) error {
	rec := r.win
	whole := len(rec) >= recordHeaderLen && int64(r.uint32(rec[8:])) <= int64(len(rec)-recordHeaderLen)
	if !whole {
		// The window has run out mid-record: hand back to the buffer what it
		// parsed, and peek this record — the header and as much of the
		// longest prefix as the buffer holds, reading the source only when
		// the header is not all there.
		r.br.Discard(r.used) // peeked, so all there
		r.win, r.used = nil, 0
		var err error
		if rec, err = r.br.Peek(max(recordHeaderLen, min(r.br.Buffered(), minBufferLen))); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("pcap: reading record header: %w", err)
		}
	}
	abs, err := r.recordTS(rec)
	if err != nil {
		return err
	}
	// Both lengths stay uint32 until bounded: as an int, an origlen of 2³¹
	// or more would turn negative wherever int is 32 bits wide.
	caplen, origlen := r.uint32(rec[8:]), r.uint32(rec[12:])
	if caplen > 1<<20 {
		return fmt.Errorf("pcap: implausible caplen %d", caplen)
	}
	if origlen < caplen {
		return fmt.Errorf("pcap: origlen %d below caplen %d", origlen, caplen)
	}
	need := recordHeaderLen + min(int(caplen), maxHeaderLen)
	if len(rec) < need {
		if rec, err = r.br.Peek(need); err != nil {
			return truncated(len(rec) > recordHeaderLen, err)
		}
	}
	*p = trace.Packet{TS: abs - r.baseTS}
	decodeErr := decodeFrame(rec[recordHeaderLen:need], origlen, p)
	size := recordHeaderLen + int(caplen)
	if whole {
		r.win, r.used = rec[size:], r.used+size
		return decodeErr
	}
	if n, err := r.br.Discard(size); err != nil {
		return truncated(n > recordHeaderLen, err)
	}
	// The records after this one, as far as the buffer holds them: the next
	// calls parse them in place. A Peek of what is buffered cannot fail.
	r.win, _ = r.br.Peek(r.br.Buffered())
	return decodeErr
}

// truncated is the error of a record whose frame the stream cut short, as
// io.ReadFull reports it: io.EOF becomes io.ErrUnexpectedEOF once part of the
// frame has arrived.
func truncated(partial bool, err error) error {
	if partial && err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("pcap: truncated record: %w", err)
}

// recordTS returns the absolute timestamp, in microseconds, of a record
// header, after checking that its sub-second field is below one second, and
// takes the first record's second as the rebase boundary.
func (r *Reader) recordTS(hdr []byte) (int64, error) {
	sec := int64(r.uint32(hdr[0:]))
	sub := int64(r.uint32(hdr[4:]))
	perSec := int64(1e6)
	if r.nanos {
		perSec = 1e9
	}
	if sub >= perSec {
		return 0, fmt.Errorf("pcap: sub-second field %d is a second or more", sub)
	}
	if r.nanos {
		sub /= 1000
	}
	if !r.haveBase {
		r.baseTS = sec * 1e6 // second boundary, keeping sub-second offset
		r.haveBase = true
	}
	return sec*1e6 + sub, nil
}

// decodeFrame parses Ethernet/IPv4/transport headers into p.
func decodeFrame(frame []byte, origlen uint32, p *trace.Packet) error {
	if len(frame) < etherHeaderLen+ipv4HeaderLen {
		return fmt.Errorf("pcap: frame too short (%d bytes)", len(frame))
	}
	be := binary.BigEndian
	if et := be.Uint16(frame[12:]); et != etherTypeIPv4 {
		return fmt.Errorf("pcap: unsupported ethertype %#04x", et)
	}
	ip := frame[etherHeaderLen:]
	if ip[0]>>4 != 4 {
		return fmt.Errorf("pcap: not IPv4 (version %d)", ip[0]>>4)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(ip) < ihl {
		return fmt.Errorf("pcap: bad IHL %d", ihl)
	}
	p.Len = be.Uint16(ip[2:])
	if p.Len == 0 {
		// At least the IPv4 header: Next keeps origlen >= caplen >=
		// len(frame), which holds the Ethernet and IPv4 headers.
		p.Len = uint16(min(origlen-etherHeaderLen, 0xffff))
	}
	p.Proto = trace.Proto(ip[9])
	p.Src = trace.IPv4(be.Uint32(ip[12:]))
	p.Dst = trace.IPv4(be.Uint32(ip[16:]))
	tp := ip[ihl:]
	switch p.Proto {
	case trace.TCP:
		if len(tp) >= 14 {
			p.SrcPort = be.Uint16(tp[0:])
			p.DstPort = be.Uint16(tp[2:])
			p.Flags = trace.TCPFlags(tp[13])
		}
	case trace.UDP:
		if len(tp) >= 4 {
			p.SrcPort = be.Uint16(tp[0:])
			p.DstPort = be.Uint16(tp[2:])
		}
	case trace.ICMP:
		if len(tp) >= 2 {
			p.SrcPort = uint16(tp[0])
			p.DstPort = uint16(tp[1])
		}
	}
	return nil
}

// ReadTrace consumes the whole stream into a Trace. No command ingests rows
// any more — cmd/mawilab and mawilabd decode with DecodeIndex — so its last
// production caller is cmd/mawibench, through mawilab.ReadPcap; it goes when
// that benchmark moves to DecodeIndex.
func ReadTrace(r io.Reader) (*trace.Trace, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{}
	var p trace.Packet
	for {
		err := pr.next(&p)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Append(p)
	}
	return tr, nil
}

// DecodeIndex consumes the whole stream straight into a columnar
// trace.Index — the fused single-pass ingest path. No intermediate
// []trace.Packet is materialized, the stream is read as NewReader reads it,
// and the index's buffers come from the shared arena pool: call
// Index.Release when done to recycle them, which is what makes steady-state
// serving allocate ~nothing per upload beyond the read buffer.
//
// The result is structurally identical to ReadTrace followed by
// trace.NewIndex (pinned by differential and fuzz tests) — this is the only
// pooled use of the index builder, everything else builds detached. Streams
// whose rebased timestamps violate the sorted trace model are rejected with
// trace.ErrUnsorted, because the columns are final as they stream in;
// ReadTrace accepts them as an unsorted Trace, which trace.SealTrace and
// Pipeline.Run then reject with the same error.
func DecodeIndex(r io.Reader) (*trace.Index, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	b := trace.NewIndexBuilder()
	var p trace.Packet
	for {
		err := pr.next(&p)
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Discard()
			return nil, err
		}
		if err := b.Add(p); err != nil {
			b.Discard()
			return nil, err
		}
	}
	return b.Finish(), nil
}
