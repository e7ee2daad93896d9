package trace

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// indexTestTrace builds a seeded synthetic trace with enough flow reuse and
// timestamp collisions to exercise runs, postings and window searches.
func indexTestTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "index-test"}
	for i := 0; i < n; i++ {
		tr.Append(Packet{
			TS:      int64(rng.Intn(30 * 1e6)),
			Src:     MakeIPv4(10, 0, byte(rng.Intn(4)), byte(rng.Intn(16))),
			Dst:     MakeIPv4(192, 168, byte(rng.Intn(4)), byte(rng.Intn(16))),
			SrcPort: uint16(1024 + rng.Intn(64)),
			DstPort: uint16(rng.Intn(8)*1111 + 80),
			Len:     uint16(40 + rng.Intn(1460)),
			Proto:   []Proto{TCP, UDP, ICMP}[rng.Intn(3)],
			Flags:   TCPFlags(rng.Intn(256)),
		})
	}
	tr.Sort()
	return tr
}

// BuildIndex is the map-based two-pass reference build the production
// IndexBuilder replaced: copy the columns, group packet indices per flow in a
// map, sort the flow keys canonically, lay out the runs, then state each
// posting as what it is — the flow ids stably sorted by Dst, and by DstPort.
// It shares no code with the builder beyond flowCompare, accepts any
// timestamp order (it never checks), and exists so the differential tests
// and FuzzIndexBuilder have an independent oracle.
func BuildIndex(tr *Trace) *Index {
	n := tr.Len()
	ix := &Index{
		TS:      make([]int64, n),
		Src:     make([]IPv4, n),
		Dst:     make([]IPv4, n),
		SrcPort: make([]uint16, n),
		DstPort: make([]uint16, n),
		PktLen:  make([]uint16, n),
		Proto:   make([]Proto, n),
		Flags:   make([]TCPFlags, n),
		flowOf:  make([]int32, n),
	}
	runs := make(map[FlowKey][]int32)
	for i := range tr.Packets {
		p := &tr.Packets[i]
		ix.TS[i] = p.TS
		ix.Src[i] = p.Src
		ix.Dst[i] = p.Dst
		ix.SrcPort[i] = p.SrcPort
		ix.DstPort[i] = p.DstPort
		ix.PktLen[i] = p.Len
		ix.Proto[i] = p.Proto
		ix.Flags[i] = p.Flags
		runs[p.Flow()] = append(runs[p.Flow()], int32(i))
	}

	ix.flows = make([]FlowKey, 0, len(runs))
	for k := range runs {
		ix.flows = append(ix.flows, k)
	}
	sort.Slice(ix.flows, func(i, j int) bool { return flowCompare(ix.flows[i], ix.flows[j]) < 0 })

	ix.flowOff = make([]int32, len(ix.flows)+1)
	ix.flowPkts = make([]int32, 0, n)
	for fi, k := range ix.flows {
		run := runs[k]
		ix.flowPkts = append(ix.flowPkts, run...)
		ix.flowOff[fi+1] = int32(len(ix.flowPkts))
		for _, pi := range run {
			ix.flowOf[pi] = int32(fi)
		}
	}

	ix.byDst = make([]int32, len(ix.flows))
	for fi := range ix.byDst {
		ix.byDst[fi] = int32(fi)
	}
	ix.byDstPort = slices.Clone(ix.byDst)
	sort.SliceStable(ix.byDst, func(i, j int) bool { return ix.flows[ix.byDst[i]].Dst < ix.flows[ix.byDst[j]].Dst })
	sort.SliceStable(ix.byDstPort, func(i, j int) bool {
		return ix.flows[ix.byDstPort[i]].DstPort < ix.flows[ix.byDstPort[j]].DstPort
	})
	return ix
}

// FlowIndex maps every unidirectional flow key in the trace to the indices
// of its packets, in timestamp order — the simplest possible statement of
// what the index's flow table must contain.
func (t *Trace) FlowIndex() map[FlowKey][]int {
	idx := make(map[FlowKey][]int)
	for i := range t.Packets {
		k := t.Packets[i].Flow()
		idx[k] = append(idx[k], i)
	}
	return idx
}

// TestIndexMatchesFlowIndex: the canonical flow table must carry exactly
// the flows and packet runs of the one-shot Trace.FlowIndex, in the
// extractor's historical sort order.
func TestIndexMatchesFlowIndex(t *testing.T) {
	tr := indexTestTrace(11, 2500)
	ix := NewIndex(tr)
	want := tr.FlowIndex()
	if ix.Flows() != len(want) {
		t.Fatalf("flows = %d, want %d", ix.Flows(), len(want))
	}
	for fi := 0; fi < ix.Flows(); fi++ {
		k := ix.Flow(fi)
		if fi > 0 && flowCompare(ix.Flow(fi-1), k) >= 0 {
			t.Fatalf("flow table not strictly sorted at %d", fi)
		}
		run := ix.FlowPackets(fi)
		ref := want[k]
		if len(run) != len(ref) {
			t.Fatalf("flow %v: run length %d, want %d", k, len(run), len(ref))
		}
		for i, pi := range run {
			if int(pi) != ref[i] {
				t.Fatalf("flow %v: run[%d] = %d, want %d", k, i, pi, ref[i])
			}
			if ix.FlowIDOf(int(pi)) != int32(fi) {
				t.Fatalf("FlowIDOf(%d) = %d, want %d", pi, ix.FlowIDOf(int(pi)), fi)
			}
		}
	}
}

// rowWindow is the reference Index.Window is checked against: one
// sort.Search per bound over the row packets' timestamps.
func rowWindow(tr *Trace, from, to int64) (lo, hi int) {
	search := func(ts int64) int {
		return sort.Search(len(tr.Packets), func(i int) bool { return tr.Packets[i].TS >= ts })
	}
	return search(from), search(to)
}

// TestIndexWindowMatchesTrace: Window must agree with rowWindow and with a
// linear scan of the timestamps — on randomized bounds, on bounds below zero,
// exactly on packet timestamps and far past Duration(), over a dense trace
// and over one whose second half sits 1e7 s after its first.
func TestIndexWindowMatchesTrace(t *testing.T) {
	dense := indexTestTrace(13, 1200)
	gapped := indexTestTrace(14, 600)
	for i := gapped.Len() / 2; i < gapped.Len(); i++ {
		gapped.Packets[i].TS += 1e7 * 1e6
	}
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{{"dense", dense}, {"gap", gapped}} {
		name, tr := tc.name, tc.tr
		ix := NewIndex(tr)
		end := tr.Packets[tr.Len()-1].TS
		check := func(from, to int64) {
			t.Helper()
			wlo, whi := rowWindow(tr, from, to)
			slo, shi := 0, 0
			for _, p := range tr.Packets {
				if p.TS < from {
					slo++
				}
				if p.TS < to {
					shi++
				}
			}
			if ilo, ihi := ix.Window(from, to); ilo != wlo || ihi != whi || ilo != slo || ihi != shi {
				t.Fatalf("%s: Window(%v,%v) = [%d,%d), trace says [%d,%d), scan says [%d,%d)",
					name, from, to, ilo, ihi, wlo, whi, slo, shi)
			}
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 500; i++ {
			from := rng.Int63n(end+10e6) - 5e6
			check(from, from+rng.Int63n(10e6)-2e6)
		}
		// Whole-second boundaries, below zero and far past the last packet.
		for _, us := range []int64{-1e15, -3e6, -1, 0, 1e6, 1.5e6, 29e6, 30e6, 31e6, end, end + 1e6, 1e13, 2e13, 1e18} {
			check(us, us+1e6)
			check(-5e6, us)
		}
		// Bounds exactly on packet timestamps, and one microsecond either side.
		for i := 0; i < 200; i++ {
			at := ix.TS[rng.Intn(ix.Len())]
			check(at, at+1)
			check(at-1, at)
			check(0, at)
			check(at, end+1e6)
		}
	}
}

// TestIndexCandidateFlows: the candidates must be a complete, strictly
// ascending run for every filter — a real prune (shorter than the table) when
// the filter names a posted field, every flow when it names none, and none
// when the named value is absent from the trace.
func TestIndexCandidateFlows(t *testing.T) {
	tr := indexTestTrace(17, 2000)
	ix := NewIndex(tr)
	flowIDs := func(f Filter) []int {
		c := ix.CandidateFlows(f)
		ids := make([]int, c.Len())
		for i := range ids {
			ids[i] = c.At(i)
			if i > 0 && ids[i] <= ids[i-1] {
				t.Fatalf("filter %v: candidates not strictly ascending at %d", f, i)
			}
		}
		return ids
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		k := ix.Flow(rng.Intn(ix.Flows()))
		var f Filter
		switch i % 4 {
		case 0:
			f = NewFilter().WithSrc(k.Src)
		case 1:
			f = NewFilter().WithDst(k.Dst)
		case 2:
			f = NewFilter().WithDstPort(k.DstPort)
		default:
			f = NewFilter().WithSrc(k.Src).WithDst(k.Dst).WithDstPort(k.DstPort)
		}
		cands := flowIDs(f)
		if len(cands) == 0 || len(cands) >= ix.Flows() {
			t.Fatalf("filter %v: %d candidates of %d flows, want a proper non-empty prune", f, len(cands), ix.Flows())
		}
		for fi := 0; fi < ix.Flows(); fi++ {
			if _, ok := slices.BinarySearch(cands, fi); !ok && f.MatchFlow(ix.Flow(fi)) {
				t.Fatalf("filter %v: matching flow %d missing from candidates", f, fi)
			}
		}
	}
	// No posted field: every flow, in table order.
	for _, f := range []Filter{NewFilter(), NewFilter().WithSrcPort(1030).WithProto(TCP)} {
		cands := flowIDs(f)
		if len(cands) != ix.Flows() || cands[0] != 0 {
			t.Fatalf("filter %v: %d candidates, want all %d flows", f, len(cands), ix.Flows())
		}
	}
	// Absent value in any posted field: no candidates, whatever else is set.
	for _, f := range []Filter{
		NewFilter().WithSrc(MakeIPv4(1, 2, 3, 4)),
		NewFilter().WithDst(MakeIPv4(1, 2, 3, 4)),
		NewFilter().WithDstPort(7),
		NewFilter().WithSrc(ix.Flow(0).Src).WithDstPort(7),
	} {
		if n := ix.CandidateFlows(f).Len(); n != 0 {
			t.Fatalf("filter %v: %d candidates for an absent value, want none", f, n)
		}
	}
}

// TestIndexSpanIndependent: an index costs what its packets and flows cost,
// not what the span of its timestamps does. Two packets 1e7 s apart took a
// 40 MB one-entry-per-second table before the index went flat; 6e8 s apart
// (a 2-packet upload stamped in 1970 and 1989) took 2.3 GB.
func TestIndexSpanIndependent(t *testing.T) {
	for _, span := range []int64{1e7, 6e8} {
		tr := &Trace{Packets: []Packet{
			{TS: 0, Src: 1, Dst: 2, Len: 40, Proto: TCP},
			{TS: span * 1e6, Src: 2, Dst: 1, Len: 40, Proto: TCP},
		}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix := NewIndex(tr)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("span %d s: index allocated %d bytes, want under 64 KB", span, got)
		}
		if lo, hi := ix.Window(1e6, span*1e6); lo != 1 || hi != 1 {
			t.Errorf("span %d s: Window between the packets = [%d,%d), want [1,1)", span, lo, hi)
		}
		if lo, hi := ix.Window(0, span*1e6+1e6); lo != 0 || hi != 2 {
			t.Errorf("span %d s: Window over both = [%d,%d), want [0,2)", span, lo, hi)
		}
	}
}

// TestIndexEmptyTrace: all accessors stay well-defined on an empty trace.
func TestIndexEmptyTrace(t *testing.T) {
	ix := NewIndex(&Trace{})
	if ix.Len() != 0 || ix.Flows() != 0 || ix.Duration() != 0 {
		t.Fatalf("empty index: len=%d flows=%d dur=%v", ix.Len(), ix.Flows(), ix.Duration())
	}
	if lo, hi := ix.Window(0, 10e6); lo != 0 || hi != 0 {
		t.Fatalf("empty window = [%d,%d)", lo, hi)
	}
}
