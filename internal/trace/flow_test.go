package trace

import (
	"testing"
	"testing/quick"
)

func TestFlowReverseInvolution(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{Src: IPv4(src), Dst: IPv4(dst), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		return k.Reverse().Reverse() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalSymmetric(t *testing.T) {
	// A key and its reverse must map to the same canonical representative.
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{Src: IPv4(src), Dst: IPv4(dst), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		return k.Canonical() == k.Reverse().Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{Src: IPv4(src), Dst: IPv4(dst), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		c := k.Canonical()
		return c.Canonical() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketFlowRoundTrip(t *testing.T) {
	p := Packet{Src: MakeIPv4(1, 2, 3, 4), Dst: MakeIPv4(5, 6, 7, 8), SrcPort: 1234, DstPort: 80, Proto: TCP}
	k := p.Flow()
	if k.Src != p.Src || k.Dst != p.Dst || k.SrcPort != p.SrcPort || k.DstPort != p.DstPort || k.Proto != p.Proto {
		t.Errorf("Flow() = %+v does not match packet %+v", k, p)
	}
}

func TestGranularityString(t *testing.T) {
	if GranPacket.String() != "packet" || GranUniFlow.String() != "uniflow" || GranBiFlow.String() != "biflow" {
		t.Errorf("unexpected granularity names: %s %s %s", GranPacket, GranUniFlow, GranBiFlow)
	}
	if Granularity(9).String() == "" {
		t.Error("unknown granularity should still render")
	}
}

func TestProtoAndFlagsString(t *testing.T) {
	if TCP.String() != "tcp" || UDP.String() != "udp" || ICMP.String() != "icmp" {
		t.Error("unexpected proto names")
	}
	if Proto(47).String() != "proto47" {
		t.Errorf("Proto(47) = %q", Proto(47).String())
	}
	if got := (SYN | ACK).String(); got != "SYN|ACK" {
		t.Errorf("flags = %q, want SYN|ACK", got)
	}
	if got := TCPFlags(0).String(); got != "-" {
		t.Errorf("zero flags = %q, want -", got)
	}
	if !(SYN | ACK).Has(SYN) || (SYN).Has(SYN|ACK) {
		t.Error("Has mask semantics broken")
	}
}
