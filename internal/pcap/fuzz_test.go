package pcap

import (
	"bytes"
	"io"
	"testing"

	"mawilab/internal/trace"
)

// normalizePacket maps arbitrary fuzz inputs onto a packet the pcap format
// can represent losslessly: a supported transport (the protocol selector
// picks one of TCP/UDP/ICMP), single-byte ICMP type/code, flags only on
// TCP, and an IP length at least as large as the headers the writer
// synthesizes (the format stores no smaller length — a shorter packet's
// record still holds its whole headers).
func normalizePacket(src, dst uint32, sport, dport uint16, protoSel, flags byte, length uint16, tsMicros uint32) trace.Packet {
	p := trace.Packet{
		TS:  int64(tsMicros),
		Src: trace.IPv4(src),
		Dst: trace.IPv4(dst),
		Len: length,
	}
	switch protoSel % 3 {
	case 0:
		p.Proto = trace.TCP
		p.SrcPort, p.DstPort = sport, dport
		p.Flags = trace.TCPFlags(flags)
		if p.Len < ipv4HeaderLen+tcpHeaderLen {
			p.Len = ipv4HeaderLen + tcpHeaderLen
		}
	case 1:
		p.Proto = trace.UDP
		p.SrcPort, p.DstPort = sport, dport
		if p.Len < ipv4HeaderLen+udpHeaderLen {
			p.Len = ipv4HeaderLen + udpHeaderLen
		}
	default:
		p.Proto = trace.ICMP
		p.SrcPort, p.DstPort = uint16(byte(sport)), uint16(byte(dport))
		if p.Len < ipv4HeaderLen+icmpHeaderLen {
			p.Len = ipv4HeaderLen + icmpHeaderLen
		}
	}
	return p
}

// FuzzRoundTrip writes a fuzz-shaped packet to a pcap stream and reads it
// back: the write→read cycle must preserve every field of every
// representable packet and must never panic or error on its own output;
// the same packets as an index must survive EncodeIndex → DecodeIndex.
// A base packet at TS 0 precedes the fuzzed one so the reader's
// first-packet timestamp rebase is exercised without erasing the fuzzed
// timestamp.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(0x0a010203), uint32(0xcb000001), uint16(1234), uint16(80), byte(0), byte(0x12), uint16(600), uint32(5_000_000))
	f.Add(uint32(0), uint32(0xffffffff), uint16(0), uint16(65535), byte(1), byte(0), uint16(0), uint32(0))
	f.Add(uint32(0xc0a80001), uint32(0x08080808), uint16(8), uint16(0), byte(2), byte(0xff), uint16(84), uint32(59_999_999))
	f.Add(uint32(1), uint32(2), uint16(53), uint16(53), byte(1), byte(0), uint16(0xffff), uint32(1))
	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, protoSel, flags byte, length uint16, tsMicros uint32) {
		p := normalizePacket(src, dst, sport, dport, protoSel, flags, length, tsMicros)
		base := trace.Packet{Proto: trace.UDP, Len: ipv4HeaderLen + udpHeaderLen}
		in := &trace.Trace{Packets: []trace.Packet{base, p}}

		var buf bytes.Buffer
		if err := WriteTrace(&buf, in); err != nil {
			t.Fatalf("WriteTrace(%+v): %v", p, err)
		}
		out, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace of own output (%+v): %v", p, err)
		}
		if out.Len() != 2 {
			t.Fatalf("read %d packets, want 2", out.Len())
		}
		q := out.Packets[1]
		if q != p {
			t.Fatalf("round trip mutated the packet:\n in: %+v\nout: %+v", p, q)
		}

		// The index leg: the same two packets as an index, through the
		// payload-stripped encoding and back.
		checkIndexRoundTrip(t, trace.NewIndex(in))

		// The reader must also survive a truncated copy of the stream
		// without panicking (errors are fine; corruption is pcap reality).
		if buf.Len() > 0 {
			trunc := buf.Bytes()[:buf.Len()-1-int(protoSel)%buf.Len()]
			r, err := NewReader(bytes.NewReader(trunc))
			if err == nil {
				for {
					if _, err := r.Next(); err != nil {
						break
					}
				}
			}
		}
	})
}

// TestRoundTripNormalized is a single-case smoke of normalizePacket's
// round-trip path plus the empty-stream rejection. (The committed seed
// corpus itself already runs through FuzzRoundTrip's body on every plain
// `go test` — that coverage does not depend on this test.)
func TestRoundTripNormalized(t *testing.T) {
	p := normalizePacket(0x0a010203, 0xcb000001, 1234, 80, 0, 0x12, 600, 5_000_000)
	in := &trace.Trace{Packets: []trace.Packet{{Proto: trace.ICMP, Len: 84}, p}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || out.Packets[1] != p {
		t.Fatalf("round trip failed: %+v", out.Packets)
	}
	if _, err := ReadTrace(io.LimitReader(bytes.NewReader(nil), 0)); err == nil {
		t.Error("empty stream accepted")
	}
}
