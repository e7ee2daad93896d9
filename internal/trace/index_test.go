package trace

import (
	"math/rand"
	"sort"
	"testing"
)

// indexTestTrace builds a seeded synthetic trace with enough flow reuse and
// timestamp collisions to exercise runs, postings and buckets.
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
// map, sort the flow keys canonically, then lay out runs, postings and time
// buckets. It shares no code with the builder beyond flowCompare and bucketTS,
// accepts any timestamp order (it never checks), and exists so the
// differential tests and FuzzIndexBuilder have an independent oracle.
func BuildIndex(tr *Trace) *Index {
	n := tr.Len()
	ix := &Index{
		TS:      make([]int64, n),
		Seconds: make([]float64, n),
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
		ix.Seconds[i] = p.Seconds()
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
	ix.bySrc = make(map[IPv4][]int32)
	ix.byDst = make(map[IPv4][]int32)
	ix.byDstPort = make(map[uint16][]int32)
	for fi, k := range ix.flows {
		run := runs[k]
		ix.flowPkts = append(ix.flowPkts, run...)
		ix.flowOff[fi+1] = int32(len(ix.flowPkts))
		for _, pi := range run {
			ix.flowOf[pi] = int32(fi)
		}
		ix.bySrc[k.Src] = append(ix.bySrc[k.Src], int32(fi))
		ix.byDst[k.Dst] = append(ix.byDst[k.Dst], int32(fi))
		ix.byDstPort[k.DstPort] = append(ix.byDstPort[k.DstPort], int32(fi))
	}

	nb := 0
	if n > 0 {
		nb = int(ix.TS[n-1]/bucketTS) + 1
	}
	ix.bucketLo = make([]int32, nb+1)
	pi := 0
	for b := 0; b <= nb; b++ {
		for pi < n && ix.TS[pi] < int64(b)*bucketTS {
			pi++
		}
		ix.bucketLo[b] = int32(pi)
	}
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

// TestIndexWindowMatchesTrace: the bucket-narrowed Window must agree with
// Trace.Window on randomized (including negative and out-of-range) bounds.
func TestIndexWindowMatchesTrace(t *testing.T) {
	tr := indexTestTrace(13, 1200)
	ix := NewIndex(tr)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		from := rng.Float64()*40 - 5
		to := from + rng.Float64()*10 - 2
		wlo, whi := tr.Window(from, to)
		ilo, ihi := ix.Window(from, to)
		if wlo != ilo || whi != ihi {
			t.Fatalf("Window(%v,%v) = [%d,%d), trace says [%d,%d)", from, to, ilo, ihi, wlo, whi)
		}
	}
	// Exact bucket boundaries.
	for _, sec := range []float64{0, 1, 1.5, 29, 30, 31} {
		wlo, whi := tr.Window(sec, sec+1)
		ilo, ihi := ix.Window(sec, sec+1)
		if wlo != ilo || whi != ihi {
			t.Fatalf("Window(%v) = [%d,%d), want [%d,%d)", sec, ilo, ihi, wlo, whi)
		}
	}
}

// TestIndexCandidateFlows: the posting lists must return a complete,
// ascending candidate set for every constrained field, and decline filters
// without a posted field.
func TestIndexCandidateFlows(t *testing.T) {
	tr := indexTestTrace(17, 2000)
	ix := NewIndex(tr)
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
		cands, ok := ix.CandidateFlows(f)
		if !ok {
			t.Fatalf("filter %v: posting lists declined", f)
		}
		if !sort.SliceIsSorted(cands, func(a, b int) bool { return cands[a] < cands[b] }) {
			t.Fatalf("filter %v: candidates not ascending", f)
		}
		inCands := make(map[int32]struct{}, len(cands))
		for _, fi := range cands {
			inCands[fi] = struct{}{}
		}
		for fi := 0; fi < ix.Flows(); fi++ {
			if _, ok := inCands[int32(fi)]; !ok && f.MatchFlow(ix.Flow(fi)) {
				t.Fatalf("filter %v: matching flow %d missing from candidates", f, fi)
			}
		}
	}
	if _, ok := ix.CandidateFlows(NewFilter()); ok {
		t.Fatal("match-all filter should decline the prefilter")
	}
	if _, ok := ix.CandidateFlows(NewFilter().WithSrcPort(1030).WithProto(TCP)); ok {
		t.Fatal("srcPort/proto-only filter should decline the prefilter")
	}
	// Absent value: prefilter accepts with zero candidates.
	if cands, ok := ix.CandidateFlows(NewFilter().WithSrc(MakeIPv4(1, 2, 3, 4))); !ok || len(cands) != 0 {
		t.Fatalf("unknown src: cands=%d ok=%v, want empty accept", len(cands), ok)
	}
}

// TestIndexEmptyTrace: all accessors stay well-defined on an empty trace.
func TestIndexEmptyTrace(t *testing.T) {
	ix := NewIndex(&Trace{})
	if ix.Len() != 0 || ix.Flows() != 0 || ix.Duration() != 0 {
		t.Fatalf("empty index: len=%d flows=%d dur=%v", ix.Len(), ix.Flows(), ix.Duration())
	}
	if lo, hi := ix.Window(0, 10); lo != 0 || hi != 0 {
		t.Fatalf("empty window = [%d,%d)", lo, hi)
	}
}
