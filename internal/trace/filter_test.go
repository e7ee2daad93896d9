package trace

import (
	"strings"
	"testing"
)

func TestFilterMatchAll(t *testing.T) {
	f := NewFilter()
	p := Packet{Src: MakeIPv4(1, 2, 3, 4), DstPort: 80, Proto: TCP}
	if !f.Match(&p) {
		t.Error("empty filter must match everything")
	}
	if f.Src != nil || f.Dst != nil || f.SrcPort != nil || f.DstPort != nil || f.Proto != nil || f.TimeBounded() {
		t.Errorf("empty filter constrains a field: %v", f)
	}
}

func TestFilterFields(t *testing.T) {
	src := MakeIPv4(1, 2, 3, 4)
	dst := MakeIPv4(5, 6, 7, 8)
	f := NewFilter().WithSrc(src).WithDst(dst).WithSrcPort(1234).WithDstPort(80).WithProto(TCP)
	if f.Src == nil || *f.Src != src || f.Dst == nil || *f.Dst != dst || f.SrcPort == nil || *f.SrcPort != 1234 ||
		f.DstPort == nil || *f.DstPort != 80 || f.Proto == nil || *f.Proto != TCP {
		t.Fatalf("builders did not set every field: %v", f)
	}
	good := Packet{Src: src, Dst: dst, SrcPort: 1234, DstPort: 80, Proto: TCP}
	if !f.Match(&good) {
		t.Error("fully matching packet rejected")
	}
	variants := []Packet{
		{Src: MakeIPv4(9, 9, 9, 9), Dst: dst, SrcPort: 1234, DstPort: 80, Proto: TCP},
		{Src: src, Dst: MakeIPv4(9, 9, 9, 9), SrcPort: 1234, DstPort: 80, Proto: TCP},
		{Src: src, Dst: dst, SrcPort: 9999, DstPort: 80, Proto: TCP},
		{Src: src, Dst: dst, SrcPort: 1234, DstPort: 81, Proto: TCP},
		{Src: src, Dst: dst, SrcPort: 1234, DstPort: 80, Proto: UDP},
	}
	for i, p := range variants {
		if f.Match(&p) {
			t.Errorf("variant %d should not match", i)
		}
	}
}

func TestFilterInterval(t *testing.T) {
	f := NewFilter().WithInterval(10e6, 20e6)
	if !f.TimeBounded() {
		t.Fatal("filter should be time-bounded")
	}
	in := Packet{TS: 15e6}
	below := Packet{TS: 9e6}
	atEnd := Packet{TS: 20e6}
	if !f.Match(&in) {
		t.Error("packet inside interval rejected")
	}
	if f.Match(&below) {
		t.Error("packet before interval accepted")
	}
	if f.Match(&atEnd) {
		t.Error("interval must be half-open [from,to)")
	}
}

func TestFilterMatchFlowIgnoresTime(t *testing.T) {
	src := MakeIPv4(1, 2, 3, 4)
	f := NewFilter().WithSrc(src).WithInterval(100e6, 200e6)
	k := FlowKey{Src: src, Dst: MakeIPv4(5, 6, 7, 8), SrcPort: 1, DstPort: 2, Proto: TCP}
	if !f.MatchFlow(k) {
		t.Error("MatchFlow should ignore the time bound")
	}
	if f.MatchFlow(k.Reverse()) {
		t.Error("reverse flow has different src, must not match")
	}
}

func TestFilterString(t *testing.T) {
	src := MakeIPv4(1, 2, 3, 4)
	f := NewFilter().WithSrc(src).WithDstPort(80)
	s := f.String()
	if !strings.Contains(s, "1.2.3.4") || !strings.Contains(s, "80") || !strings.Contains(s, "*") {
		t.Errorf("String() = %q missing expected parts", s)
	}
	all := NewFilter().String()
	if all != "<*, *, *, *>" {
		t.Errorf("match-all filter String() = %q", all)
	}
	tb := NewFilter().WithProto(UDP).WithInterval(1e6, 2_500_000).String()
	if tb != "<*, *, *, *>/udp @[1.0,2.5)" {
		t.Errorf("time-bounded filter String() = %q", tb)
	}
}
