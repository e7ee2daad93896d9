package trace

import (
	"cmp"
	"math"
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

// refSort is the comparison sort Trace.Sort replaced: a stable merge sort on
// the timestamp. Trace.Sort must leave every row where it leaves it.
func refSort(ps []Packet) {
	slices.SortStableFunc(ps, func(a, b Packet) int { return cmp.Compare(a.TS, b.TS) })
}

// tagged returns one row per timestamp, each carrying its arrival position in
// Src and Len, so that a sort that loses stability moves a visible field.
func tagged(ts ...int64) []Packet {
	ps := make([]Packet, len(ts))
	for i, v := range ts {
		ps[i] = Packet{TS: v, Src: IPv4(i), Len: uint16(i), Proto: TCP}
	}
	return ps
}

// checkSort sorts a copy of ps with Trace.Sort and one with refSort and
// requires the same rows, field by field, in the same order.
func checkSort(t *testing.T, ps []Packet) {
	t.Helper()
	want := slices.Clone(ps)
	refSort(want)
	tr := &Trace{Packets: slices.Clone(ps)}
	tr.Sort()
	if len(tr.Packets) != len(want) {
		t.Fatalf("Sort left %d rows, want %d", len(tr.Packets), len(want))
	}
	for i := range want {
		if tr.Packets[i] != want[i] {
			t.Fatalf("row %d of %d = %+v, reference %+v", i, len(want), tr.Packets[i], want[i])
		}
	}
}

// TestTraceSortMatchesReference pins Trace.Sort, a radix sort, to the stable
// comparison sort on whole rows: ties keep their arrival order, negative
// timestamps and the int64 extremes order as numbers, and keys that differ
// in one byte — one radix pass, so the rows end in the scratch slice and are
// copied back — sort as well as keys that differ in many.
func TestTraceSortMatchesReference(t *testing.T) {
	reversed := make([]int64, 1000)
	for i := range reversed {
		reversed[i] = int64(len(reversed)-i) * 1000
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]int64, 5000)
	for i := range random {
		random[i] = rng.Int63n(600e6) // a 10-minute day, four varying bytes
	}
	ties := make([]int64, 3000)
	for i := range ties {
		ties[i] = int64(rng.Intn(7))
	}
	var oneByte []int64
	for shift := 0; shift < 64; shift += 8 {
		for _, b := range []int64{3, 1, 2, 1, 0} {
			oneByte = append(oneByte, 0x0102030405060708&^(0xff<<shift)|b<<shift)
		}
	}
	cases := []struct {
		name string
		ts   []int64
	}{
		{"empty", nil},
		{"one row", []int64{42}},
		{"equal timestamps", []int64{5, 5, 5, 5, 5}},
		{"ties among unsorted", []int64{2, 1, 2, 1, 2, 0, 1}},
		{"negative", []int64{3, -1, 0, -1, -300, 2, -2}},
		{"int64 extremes", []int64{math.MaxInt64, 0, math.MinInt64, -1, 1, math.MaxInt64, math.MinInt64}},
		{"sign bit only", []int64{0, math.MinInt64, 0, math.MinInt64}},
		{"differ in one byte", oneByte},
		{"reversed", reversed},
		{"random day", random},
		{"many ties", ties},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkSort(t, tagged(c.ts...)) })
	}
	// Each single byte position on its own: every shift is one pass.
	for shift := 0; shift < 64; shift += 8 {
		var ts []int64
		for _, b := range []uint64{0x80, 0x01, 0xff, 0x00, 0x01} {
			ts = append(ts, int64(b<<shift))
		}
		checkSort(t, tagged(ts...))
	}
}

// TestTraceSortSortedAllocatesNothing: rows that are already in order come
// back from the first read-only pass, with no scratch slice.
func TestTraceSortSortedAllocatesNothing(t *testing.T) {
	tr := buildTrace(2000, 3)
	tr.Packets[10].TS = tr.Packets[11].TS // a tie keeps it sorted
	if allocs := testing.AllocsPerRun(20, tr.Sort); allocs != 0 {
		t.Errorf("Sort of sorted rows: %v allocs/op, want 0", allocs)
	}
	if !sortedTS(tr) {
		t.Error("sorted rows left unsorted")
	}
}

func TestTraceWindow(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Append(Packet{TS: int64(i) * 1e6}) // one packet per second
	}
	ix := NewIndex(tr)
	lo, hi := ix.Window(2e6, 5e6)
	if lo != 2 || hi != 5 {
		t.Errorf("Window(2 s, 5 s) = [%d,%d), want [2,5)", lo, hi)
	}
	lo, hi = ix.Window(0, 100e6)
	if lo != 0 || hi != 10 {
		t.Errorf("Window(0 s, 100 s) = [%d,%d), want [0,10)", lo, hi)
	}
	lo, hi = ix.Window(100e6, 200e6)
	if lo != hi {
		t.Errorf("empty window should have lo==hi, got [%d,%d)", lo, hi)
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
	if ix := NewIndex(tr); ix.Len() != 0 || ix.Flows() != 0 || ix.Duration() != 0 {
		t.Error("empty trace should index to no packets, no flows and duration 0")
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
