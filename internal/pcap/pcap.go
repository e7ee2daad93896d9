// Package pcap reads and writes classic libpcap capture files using only
// the standard library, and converts between on-the-wire frames and the
// in-memory trace.Packet model.
//
// Only the subset needed by the MAWILab pipeline is implemented: the classic
// (non-ng) file format with Ethernet link type, and Ethernet/IPv4 framing of
// TCP, UDP and ICMP. This matches the MAWI archive contents the paper
// consumes (anonymized IPv4 headers, payloads stripped).
package pcap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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

	defaultSnaplen = 65535
)

// ErrNotPcap is returned when the global header magic is unrecognized.
var ErrNotPcap = errors.New("pcap: bad magic number")

// Writer serializes packets into a classic pcap stream. Create one with
// NewWriter, which emits the global header immediately.
type Writer struct {
	w       io.Writer
	buf     []byte
	snaplen uint32
}

// NewWriter writes the pcap global header and returns a Writer. snaplen 0
// selects a conventional 65535.
func NewWriter(w io.Writer, snaplen uint32) (*Writer, error) {
	if snaplen == 0 {
		snaplen = defaultSnaplen
	}
	hdr := make([]byte, globalHeaderLen)
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], magicMicros)
	le.PutUint16(hdr[4:], versionMajor)
	le.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs = 0
	le.PutUint32(hdr[16:], snaplen)
	le.PutUint32(hdr[20:], linkTypeEther)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: w, buf: make([]byte, 0, 128), snaplen: snaplen}, nil
}

// WritePacket synthesizes an Ethernet/IPv4 frame for p and appends it as one
// pcap record. Payload bytes beyond the headers are zero-filled up to the
// packet's IP length (truncated at snaplen), mirroring payload-stripped
// MAWI data.
func (w *Writer) WritePacket(p *trace.Packet) error {
	frame := w.frame(p)
	hdr := make([]byte, recordHeaderLen)
	le := binary.LittleEndian
	sec := uint32(p.TS / 1e6)
	usec := uint32(p.TS % 1e6)
	le.PutUint32(hdr[0:], sec)
	le.PutUint32(hdr[4:], usec)
	caplen := uint32(len(frame))
	origlen := uint32(etherHeaderLen) + uint32(p.Len)
	if origlen < caplen {
		origlen = caplen
	}
	le.PutUint32(hdr[8:], caplen)
	le.PutUint32(hdr[12:], origlen)
	if _, err := w.w.Write(hdr); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(frame); err != nil {
		return fmt.Errorf("pcap: writing frame: %w", err)
	}
	return nil
}

// frameDims returns the transport header length of a packet of the given
// protocol and IP length, the IP length its synthesized frame declares (at
// least the headers), and the frame's captured length under snaplen.
func frameDims(proto trace.Proto, pktLen uint16, snaplen uint32) (transportLen, ipLen, frameLen int) {
	switch proto {
	case trace.TCP:
		transportLen = tcpHeaderLen
	case trace.UDP:
		transportLen = udpHeaderLen
	case trace.ICMP:
		transportLen = icmpHeaderLen
	}
	ipLen = max(ipv4HeaderLen+transportLen, int(pktLen))
	frameLen = min(etherHeaderLen+ipLen, int(snaplen))
	return transportLen, ipLen, frameLen
}

// frame builds the Ethernet+IPv4+transport header bytes for p in w.buf.
func (w *Writer) frame(p *trace.Packet) []byte {
	transportLen, ipLen, frameLen := frameDims(p.Proto, p.Len, w.snaplen)
	if cap(w.buf) < frameLen {
		w.buf = make([]byte, frameLen)
	}
	b := w.buf[:frameLen]
	for i := range b {
		b[i] = 0
	}
	be := binary.BigEndian
	// Ethernet: zero MACs (anonymized), type IPv4.
	be.PutUint16(b[12:], etherTypeIPv4)
	ip := b[etherHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	be.PutUint16(ip[2:], uint16(min(ipLen, 0xffff)))
	ip[8] = 64 // TTL
	ip[9] = byte(p.Proto)
	be.PutUint32(ip[12:], uint32(p.Src))
	be.PutUint32(ip[16:], uint32(p.Dst))
	if len(ip) < ipv4HeaderLen+transportLen {
		return b // snaplen truncated the transport header away
	}
	tp := ip[ipv4HeaderLen:]
	switch p.Proto {
	case trace.TCP:
		be.PutUint16(tp[0:], p.SrcPort)
		be.PutUint16(tp[2:], p.DstPort)
		tp[12] = 5 << 4 // data offset
		tp[13] = byte(p.Flags)
	case trace.UDP:
		be.PutUint16(tp[0:], p.SrcPort)
		be.PutUint16(tp[2:], p.DstPort)
		be.PutUint16(tp[4:], uint16(min(ipLen-ipv4HeaderLen, 0xffff)))
	case trace.ICMP:
		tp[0] = p.ICMPType()
		tp[1] = p.ICMPCode()
	}
	return b
}

// WriteTrace writes every packet of tr to w as a pcap file.
func WriteTrace(w io.Writer, tr *trace.Trace) error {
	pw, err := NewWriter(w, 0)
	if err != nil {
		return err
	}
	for i := range tr.Packets {
		if err := pw.WritePacket(&tr.Packets[i]); err != nil {
			return fmt.Errorf("pcap: packet %d: %w", i, err)
		}
	}
	return nil
}

// WriteIndex writes every packet of ix to w as a pcap file, byte-identical
// to WriteTrace over the trace the index was decoded from — the re-encode
// half of the fused serving path, which never materializes a []Packet.
func WriteIndex(w io.Writer, ix *trace.Index) error {
	pw, err := NewWriter(w, 0)
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

// EncodedLen returns the exact number of bytes WriteIndex writes for ix: the
// global header plus, per packet, a record header and the captured frame. A
// caller encoding into memory sizes its buffer with it once instead of
// growing it by doubling.
func EncodedLen(ix *trace.Index) int {
	n := globalHeaderLen + recordHeaderLen*ix.Len()
	for i, proto := range ix.Proto {
		_, _, frameLen := frameDims(proto, ix.PktLen[i], defaultSnaplen)
		n += frameLen
	}
	return n
}

// Reader decodes a classic pcap stream back into trace packets.
type Reader struct {
	r         io.Reader
	order     binary.ByteOrder
	nanos     bool
	baseTS    int64 // second boundary of the first packet, absolute micros
	haveBase  bool
	hdrBuf    [recordHeaderLen]byte
	recordBuf []byte
}

// NewReader validates the global header and returns a Reader. Both byte
// orders and both microsecond/nanosecond magics are accepted.
func NewReader(r io.Reader) (*Reader, error) {
	hdr := make([]byte, globalHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	var order binary.ByteOrder
	nanos := false
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case magicMicros:
		order = binary.LittleEndian
	case 0xa1b23c4d:
		order = binary.LittleEndian
		nanos = true
	default:
		switch binary.BigEndian.Uint32(hdr[0:]) {
		case magicMicros:
			order = binary.BigEndian
		case 0xa1b23c4d:
			order = binary.BigEndian
			nanos = true
		default:
			return nil, ErrNotPcap
		}
	}
	if lt := order.Uint32(hdr[20:]); lt != linkTypeEther {
		return nil, fmt.Errorf("pcap: unsupported link type %d (want Ethernet)", lt)
	}
	return &Reader{r: r, order: order, nanos: nanos, recordBuf: make([]byte, 0, 2048)}, nil
}

// Next returns the next packet, or io.EOF at the end of the stream.
// Timestamps are rebased to the whole-second boundary containing the first
// packet, matching the trace model's "microseconds since trace start":
// capture slots begin on second boundaries (MAWI's daily traces start at a
// fixed wall-clock time), so the first packet's sub-second arrival offset
// is genuine signal and survives the round trip, while the absolute epoch
// does not leak into the relative timeline.
func (r *Reader) Next() (trace.Packet, error) {
	var p trace.Packet
	hdr := r.hdrBuf[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return p, io.EOF
		}
		return p, err
	}
	sec := int64(r.order.Uint32(hdr[0:]))
	sub := int64(r.order.Uint32(hdr[4:]))
	if r.nanos {
		sub /= 1000
	}
	abs := sec*1e6 + sub
	if !r.haveBase {
		r.baseTS = sec * 1e6 // second boundary, keeping sub-second offset
		r.haveBase = true
	}
	caplen := int(r.order.Uint32(hdr[8:]))
	origlen := int(r.order.Uint32(hdr[12:]))
	if caplen < 0 || caplen > 1<<20 {
		return p, fmt.Errorf("pcap: implausible caplen %d", caplen)
	}
	if cap(r.recordBuf) < caplen {
		// Grow geometrically so a stream of slowly-increasing frame sizes
		// reallocates O(log n) times, not per record.
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

// decodeFrame parses Ethernet/IPv4/transport headers into p.
func decodeFrame(frame []byte, origlen int, p *trace.Packet) error {
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
	totalLen := int(be.Uint16(ip[2:]))
	if totalLen == 0 {
		totalLen = origlen - etherHeaderLen
	}
	if totalLen > 0xffff {
		totalLen = 0xffff
	}
	p.Len = uint16(totalLen)
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

// ReadTrace consumes the whole stream into a Trace.
func ReadTrace(r io.Reader) (*trace.Trace, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{}
	for {
		p, err := pr.Next()
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
// []trace.Packet is materialized, and the index's buffers come from the
// shared arena pool: call Index.Release when done to recycle them, which is
// what makes steady-state serving allocate ~nothing per upload.
//
// The result is structurally identical to ReadTrace followed by
// trace.NewIndex (pinned by differential and fuzz tests) — this is the only
// pooled use of the index builder, everything else builds detached. Streams
// whose rebased timestamps violate the sorted trace model are rejected with
// trace.ErrUnsorted, because the columns are final as they stream in;
// ReadTrace accepts them as an unsorted Trace, which trace.SealTrace and
// Pipeline.Run then reject with the same error.
func DecodeIndex(r io.Reader) (*trace.Index, error) {
	// Reader.Next issues two small reads per packet; on anything that is not
	// already memory (a request body, a file) each would be a system call.
	switch r.(type) {
	case *bufio.Reader, *bytes.Reader:
	default:
		r = bufio.NewReaderSize(r, 64<<10)
	}
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	b := trace.NewIndexBuilder()
	for {
		p, err := pr.Next()
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
