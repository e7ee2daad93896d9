package trace

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// sortedTS reports whether the trace's packets are in non-decreasing
// timestamp order.
func sortedTS(tr *Trace) bool {
	return slices.IsSortedFunc(tr.Packets, func(a, b Packet) int { return cmp.Compare(a.TS, b.TS) })
}

func buildTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "test"}
	for i := 0; i < n; i++ {
		tr.Append(Packet{
			TS:      int64(i) * 1000,
			Src:     MakeIPv4(10, 0, 0, byte(rng.Intn(16))),
			Dst:     MakeIPv4(10, 0, 1, byte(rng.Intn(16))),
			SrcPort: uint16(1024 + rng.Intn(64)),
			DstPort: uint16([]int{80, 53, 22, 443}[rng.Intn(4)]),
			Proto:   []Proto{TCP, UDP, ICMP}[rng.Intn(3)],
			Len:     uint16(40 + rng.Intn(1460)),
		})
	}
	return tr
}

func TestTraceSortAndSorted(t *testing.T) {
	tr := &Trace{}
	tr.Append(Packet{TS: 300})
	tr.Append(Packet{TS: 100})
	tr.Append(Packet{TS: 200})
	if sortedTS(tr) {
		t.Fatal("trace should not be sorted yet")
	}
	tr.Sort()
	if !sortedTS(tr) {
		t.Fatal("trace should be sorted")
	}
	if tr.Packets[0].TS != 100 || tr.Packets[2].TS != 300 {
		t.Errorf("sort order wrong: %v", tr.Packets)
	}
}

func TestTraceWindow(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Append(Packet{TS: int64(i) * 1e6}) // one packet per second
	}
	ix := NewIndex(tr)
	lo, hi := ix.Window(2, 5)
	if lo != 2 || hi != 5 {
		t.Errorf("Window(2,5) = [%d,%d), want [2,5)", lo, hi)
	}
	lo, hi = ix.Window(0, 100)
	if lo != 0 || hi != 10 {
		t.Errorf("Window(0,100) = [%d,%d), want [0,10)", lo, hi)
	}
	lo, hi = ix.Window(100, 200)
	if lo != hi {
		t.Errorf("empty window should have lo==hi, got [%d,%d)", lo, hi)
	}
}

func TestComputeStats(t *testing.T) {
	tr := &Trace{}
	tr.Append(Packet{TS: 0, Src: MakeIPv4(1, 0, 0, 1), Dst: MakeIPv4(2, 0, 0, 1), SrcPort: 1000, DstPort: 80, Proto: TCP, Len: 100})
	tr.Append(Packet{TS: 1e6, Src: MakeIPv4(2, 0, 0, 1), Dst: MakeIPv4(1, 0, 0, 1), SrcPort: 80, DstPort: 1000, Proto: TCP, Len: 200})
	tr.Append(Packet{TS: 2e6, Src: MakeIPv4(1, 0, 0, 1), Dst: MakeIPv4(2, 0, 0, 1), SrcPort: 1000, DstPort: 53, Proto: UDP, Len: 60})
	s := tr.ComputeStats()
	if s.Packets != 3 || s.Bytes != 360 {
		t.Errorf("packets=%d bytes=%d, want 3/360", s.Packets, s.Bytes)
	}
	if s.Flows != 3 {
		t.Errorf("flows=%d, want 3", s.Flows)
	}
	if s.BiFlows != 2 {
		t.Errorf("biflows=%d, want 2 (the two TCP directions merge)", s.BiFlows)
	}
	if s.SrcHosts != 2 || s.DstHosts != 2 {
		t.Errorf("hosts=%d/%d, want 2/2", s.SrcHosts, s.DstHosts)
	}
	if s.Duration != 2 {
		t.Errorf("duration=%f, want 2", s.Duration)
	}
	wantTCP := 2.0 / 3.0
	if s.TCPShare < wantTCP-1e-9 || s.TCPShare > wantTCP+1e-9 {
		t.Errorf("tcp share=%f, want %f", s.TCPShare, wantTCP)
	}
}

func TestFlowIndexCoversAllPackets(t *testing.T) {
	tr := buildTrace(500, 42)
	idx := tr.FlowIndex()
	total := 0
	for k, pkts := range idx {
		total += len(pkts)
		for _, i := range pkts {
			if tr.Packets[i].Flow() != k {
				t.Fatalf("packet %d indexed under wrong flow", i)
			}
		}
	}
	if total != tr.Len() {
		t.Errorf("index covers %d packets, want %d", total, tr.Len())
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 {
		t.Error("empty trace duration should be 0")
	}
	s := tr.ComputeStats()
	if s.Packets != 0 || s.TCPShare != 0 {
		t.Error("empty trace stats should be zero")
	}
	if !sortedTS(tr) {
		t.Error("empty trace is vacuously sorted")
	}
}

func TestTraceString(t *testing.T) {
	tr := buildTrace(10, 1)
	if tr.String() == "" {
		t.Error("String should be non-empty")
	}
}

// TestDigest pins the canonical trace fingerprint, Index.Digest: it must see
// every packet field and the packet order, and the empty trace must hash to
// the SHA-256 of the empty input (so the digest definition is externally
// checkable).
func TestDigest(t *testing.T) {
	empty := NewIndex(&Trace{}).Digest()
	if empty != "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" {
		t.Errorf("empty trace digest = %s", empty)
	}
	base := Packet{TS: 1, Src: 2, Dst: 3, SrcPort: 4, DstPort: 5, Len: 6, Proto: TCP, Flags: SYN}
	mk := func(ps ...Packet) string { return NewIndex(&Trace{Packets: ps}).Digest() }
	ref := mk(base)
	if mk(base) != ref {
		t.Error("digest not deterministic")
	}
	// Every field must influence the digest.
	muts := []func(*Packet){
		func(p *Packet) { p.TS++ },
		func(p *Packet) { p.Src++ },
		func(p *Packet) { p.Dst++ },
		func(p *Packet) { p.SrcPort++ },
		func(p *Packet) { p.DstPort++ },
		func(p *Packet) { p.Len++ },
		func(p *Packet) { p.Proto = UDP },
		func(p *Packet) { p.Flags |= ACK },
	}
	for i, mut := range muts {
		q := base
		mut(&q)
		if mk(q) == ref {
			t.Errorf("field mutation %d did not change the digest", i)
		}
	}
	// Order matters: a digest is a statement about the exact byte stream.
	// Both orders of two packets sharing a timestamp are sorted.
	other := base
	other.Src = 99
	if mk(base, other) == mk(other, base) {
		t.Error("packet order did not change the digest")
	}
}
