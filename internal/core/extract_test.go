package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mawilab/internal/trace"
)

// fig1Trace builds the Fig. 1 scenario: one long flow whose packets are
// split across three alarms; Alarm2 and Alarm3 share packets, Alarm1 is a
// disjoint set of packets of the same flow.
func fig1Trace() (*trace.Trace, []Alarm) {
	src := trace.MakeIPv4(10, 0, 0, 1)
	dst := trace.MakeIPv4(10, 0, 1, 1)
	tr := &trace.Trace{Name: "fig1"}
	for i := 0; i < 10; i++ {
		tr.Append(trace.Packet{
			TS: int64(i) * 1e6, Src: src, Dst: dst,
			SrcPort: 1234, DstPort: 80, Proto: trace.TCP, Len: 100,
		})
	}
	base := trace.NewFilter().WithSrc(src).WithDst(dst).WithDstPort(80)
	alarms := []Alarm{
		{Detector: "A", Config: 0, Filters: []trace.Filter{base.WithInterval(0, 3e6)}},    // packets 0-2
		{Detector: "B", Config: 0, Filters: []trace.Filter{base.WithInterval(4e6, 8e6)}},  // packets 4-7
		{Detector: "C", Config: 0, Filters: []trace.Filter{base.WithInterval(6e6, 10e6)}}, // packets 6-9
	}
	return tr, alarms
}

func TestExtractPacketGranularityFig1(t *testing.T) {
	tr, alarms := fig1Trace()
	ext := NewExtractor(trace.NewIndex(tr), trace.GranPacket)
	s1 := ext.Extract(&alarms[0])
	s2 := ext.Extract(&alarms[1])
	s3 := ext.Extract(&alarms[2])
	if s1.Size() != 3 || s2.Size() != 4 || s3.Size() != 4 {
		t.Fatalf("sizes = %d/%d/%d, want 3/4/4", s1.Size(), s2.Size(), s3.Size())
	}
	// Alarm2 ∩ Alarm3 = packets 6,7; Alarm1 disjoint from both.
	if n := intersect(s2, s3); n != 2 {
		t.Errorf("|s2∩s3| = %d, want 2", n)
	}
	if n := intersect(s1, s2); n != 0 {
		t.Errorf("|s1∩s2| = %d, want 0", n)
	}
}

func TestExtractFlowGranularityFig1(t *testing.T) {
	// At flow granularity all three alarms designate the same single flow.
	tr, alarms := fig1Trace()
	for _, g := range []trace.Granularity{trace.GranUniFlow, trace.GranBiFlow} {
		ext := NewExtractor(trace.NewIndex(tr), g)
		s1 := ext.Extract(&alarms[0])
		s2 := ext.Extract(&alarms[1])
		s3 := ext.Extract(&alarms[2])
		if s1.Size() != 1 || s2.Size() != 1 || s3.Size() != 1 {
			t.Fatalf("%v sizes = %d/%d/%d, want 1/1/1", g, s1.Size(), s2.Size(), s3.Size())
		}
		if intersect(s1, s2) != 1 || intersect(s2, s3) != 1 {
			t.Errorf("%v: all alarms should share the flow", g)
		}
	}
}

func intersect(a, b *TrafficSet) int {
	n := 0
	for _, id := range a.IDs {
		if slices.Contains(b.IDs, id) {
			n++
		}
	}
	return n
}

func TestBiflowMergesDirections(t *testing.T) {
	src := trace.MakeIPv4(1, 1, 1, 1)
	dst := trace.MakeIPv4(2, 2, 2, 2)
	tr := &trace.Trace{}
	tr.Append(trace.Packet{TS: 0, Src: src, Dst: dst, SrcPort: 1000, DstPort: 80, Proto: trace.TCP})
	tr.Append(trace.Packet{TS: 1e6, Src: dst, Dst: src, SrcPort: 80, DstPort: 1000, Proto: trace.TCP})

	fwd := Alarm{Detector: "A", Filters: []trace.Filter{trace.NewFilter().WithSrc(src)}}
	rev := Alarm{Detector: "B", Filters: []trace.Filter{trace.NewFilter().WithSrc(dst)}}

	uni := NewExtractor(trace.NewIndex(tr), trace.GranUniFlow)
	if n := intersect(uni.Extract(&fwd), uni.Extract(&rev)); n != 0 {
		t.Errorf("uniflow intersect = %d, want 0 (directions distinct)", n)
	}
	bi := NewExtractor(trace.NewIndex(tr), trace.GranBiFlow)
	if n := intersect(bi.Extract(&fwd), bi.Extract(&rev)); n != 1 {
		t.Errorf("biflow intersect = %d, want 1 (directions merge)", n)
	}
}

func TestExtractMultipleFiltersDedupe(t *testing.T) {
	tr, _ := fig1Trace()
	src := trace.MakeIPv4(10, 0, 0, 1)
	a := Alarm{Detector: "A", Filters: []trace.Filter{
		trace.NewFilter().WithSrc(src),
		trace.NewFilter().WithDstPort(80),
	}}
	ext := NewExtractor(trace.NewIndex(tr), trace.GranUniFlow)
	ts := ext.Extract(&a)
	if ts.Size() != 1 {
		t.Errorf("overlapping filters should dedupe: size = %d", ts.Size())
	}
	if len(ts.FlowRefs) != 1 {
		t.Errorf("flow refs = %d, want 1", len(ts.FlowRefs))
	}
}

func TestExtractNoMatch(t *testing.T) {
	tr, _ := fig1Trace()
	a := Alarm{Detector: "A", Filters: []trace.Filter{
		trace.NewFilter().WithSrc(trace.MakeIPv4(99, 99, 99, 99)),
	}}
	ext := NewExtractor(trace.NewIndex(tr), trace.GranUniFlow)
	if ts := ext.Extract(&a); ts.Size() != 0 {
		t.Errorf("no-match alarm size = %d", ts.Size())
	}
}

func TestExtractTimeBoundExcludesFlow(t *testing.T) {
	tr, _ := fig1Trace()
	src := trace.MakeIPv4(10, 0, 0, 1)
	// Window covering no packets: flow must not match at flow granularity.
	a := Alarm{Detector: "A", Filters: []trace.Filter{
		trace.NewFilter().WithSrc(src).WithInterval(100e6, 200e6),
	}}
	ext := NewExtractor(trace.NewIndex(tr), trace.GranUniFlow)
	if ts := ext.Extract(&a); ts.Size() != 0 {
		t.Errorf("flow with no packet in window matched: %d", ts.Size())
	}
}

func TestUnionCommunityTraffic(t *testing.T) {
	tr, alarms := fig1Trace()
	ext := NewExtractor(trace.NewIndex(tr), trace.GranPacket)
	s2 := ext.Extract(&alarms[1])
	s3 := ext.Extract(&alarms[2])
	ct := ext.Union([]*TrafficSet{s2, s3})
	if len(ct.Packets) != 6 { // 4..9
		t.Errorf("union packets = %d, want 6", len(ct.Packets))
	}
	if len(ct.Flows) != 1 {
		t.Errorf("union flows = %d, want 1", len(ct.Flows))
	}
	// Flow granularity: packets are the whole flow.
	extF := NewExtractor(trace.NewIndex(tr), trace.GranUniFlow)
	f2 := extF.Extract(&alarms[1])
	ctF := extF.Union([]*TrafficSet{f2})
	if len(ctF.Packets) != 10 {
		t.Errorf("flow-granularity union packets = %d, want all 10", len(ctF.Packets))
	}
}

// TestUnionFlowRefsNameFlows: at every granularity, over unions of random
// alarms large and small enough to take both of the sort's paths, FlowRefs
// are the flow-table ids of Flows — same order, strictly ascending — and
// Packets are what a map-built union holds: the members' packets at packet
// granularity, every packet of the matched flows otherwise.
func TestUnionFlowRefsNameFlows(t *testing.T) {
	ix := trace.NewIndex(randomFilterTrace(29, 3000))
	rng := rand.New(rand.NewSource(7))
	for _, g := range []trace.Granularity{trace.GranPacket, trace.GranUniFlow, trace.GranBiFlow} {
		ext := NewExtractor(ix, g)
		for round := 0; round < 60; round++ {
			sets := make([]*TrafficSet, rng.Intn(6))
			wantFlows, wantPkts := map[int]struct{}{}, map[int]struct{}{}
			for i := range sets {
				sets[i] = ext.Extract(&Alarm{Detector: "rand", Filters: []trace.Filter{randomFilter(rng, ix)}})
				for _, fi := range sets[i].FlowRefs {
					wantFlows[fi] = struct{}{}
					if g != trace.GranPacket {
						for _, pi := range ix.FlowPackets(fi) {
							wantPkts[int(pi)] = struct{}{}
						}
					}
				}
				for _, pi := range sets[i].PacketIdx {
					wantPkts[pi] = struct{}{}
				}
			}
			ct := ext.Union(sets)
			if !slices.Equal(ct.FlowRefs, sortedKeys(wantFlows)) || !strictlyAscending(ct.FlowRefs) {
				t.Fatalf("%v round %d: FlowRefs are not the ascending union of the members' flows", g, round)
			}
			if len(ct.Flows) != len(ct.FlowRefs) {
				t.Fatalf("%v round %d: %d Flows, %d FlowRefs", g, round, len(ct.Flows), len(ct.FlowRefs))
			}
			for i, fi := range ct.FlowRefs {
				if ix.Flow(fi) != ct.Flows[i] {
					t.Fatalf("%v round %d: Flows[%d] = %v, FlowRefs[%d] names %v", g, round, i, ct.Flows[i], i, ix.Flow(fi))
				}
			}
			if !slices.Equal(ct.Packets, sortedKeys(wantPkts)) {
				t.Fatalf("%v round %d: Packets differ from the map-built union (%d vs %d)", g, round, len(ct.Packets), len(wantPkts))
			}
		}
	}
}

func TestExtractorAccessors(t *testing.T) {
	tr, _ := fig1Trace()
	ext := NewExtractor(trace.NewIndex(tr), trace.GranBiFlow)
	ix := ext.Index()
	if ix.Flows() != 1 {
		t.Errorf("flows = %d, want 1", ix.Flows())
	}
	if got := ix.FlowPackets(0); len(got) != 10 {
		t.Errorf("flow packets = %d", len(got))
	}
	if k := ix.Flow(0); k.DstPort != 80 {
		t.Errorf("flow key = %v", k)
	}
}

func TestAlarmStringAndKey(t *testing.T) {
	a := Alarm{Detector: "pca", Config: 2, Filters: []trace.Filter{trace.NewFilter()}}
	if a.Key() != (ConfigKey{"pca", 2}) {
		t.Error("Key wrong")
	}
	if a.Key().String() != "pca/2" {
		t.Errorf("key string = %q", a.Key().String())
	}
	if a.String() == "" {
		t.Error("String empty")
	}
	many := Alarm{Detector: "d", Filters: make([]trace.Filter, 10)}
	if many.String() == "" {
		t.Error("String with many filters empty")
	}
}

func TestConfigUniverse(t *testing.T) {
	alarms := []Alarm{
		{Detector: "b", Config: 1},
		{Detector: "a", Config: 0},
		{Detector: "b", Config: 0},
		{Detector: "b", Config: 1}, // duplicate
	}
	keys, per := ConfigUniverse(alarms)
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0] != (ConfigKey{"a", 0}) || keys[1] != (ConfigKey{"b", 0}) || keys[2] != (ConfigKey{"b", 1}) {
		t.Errorf("order = %v", keys)
	}
	if per["a"] != 1 || per["b"] != 2 {
		t.Errorf("perDetector = %v", per)
	}
}

// randomFilterTrace builds a seeded trace whose flows reuse a small pool of
// hosts and ports, so randomized filters hit flows through every posting
// list (and sometimes none).
func randomFilterTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "rand-extract"}
	for i := 0; i < n; i++ {
		tr.Append(trace.Packet{
			TS:      int64(rng.Intn(20 * 1e6)),
			Src:     trace.MakeIPv4(10, 0, 0, byte(rng.Intn(12))),
			Dst:     trace.MakeIPv4(10, 0, 1, byte(rng.Intn(12))),
			SrcPort: uint16(1024 + rng.Intn(16)),
			DstPort: uint16([]int{80, 443, 445, 5554, 9898}[rng.Intn(5)]),
			Proto:   []trace.Proto{trace.TCP, trace.UDP}[rng.Intn(2)],
			Len:     60,
		})
	}
	tr.Sort()
	return tr
}

// randomFilter draws a filter constraining a random subset of fields over a
// random (sometimes empty, sometimes unbounded) interval.
func randomFilter(rng *rand.Rand, ix *trace.Index) trace.Filter {
	k := ix.Flow(rng.Intn(ix.Flows()))
	f := trace.NewFilter()
	if rng.Intn(2) == 0 {
		f = f.WithSrc(k.Src)
	}
	if rng.Intn(2) == 0 {
		f = f.WithDst(k.Dst)
	}
	if rng.Intn(3) == 0 {
		f = f.WithSrcPort(k.SrcPort)
	}
	if rng.Intn(3) == 0 {
		f = f.WithDstPort(k.DstPort)
	}
	if rng.Intn(4) == 0 {
		f = f.WithProto(k.Proto)
	}
	if rng.Intn(2) == 0 {
		from := int64(rng.Float64() * 20e6)
		f = f.WithInterval(from, from+int64(rng.Float64()*8e6))
	}
	return f
}

// extractScan is the reference the posting-list prefilter is pinned against:
// every filter scans the whole flow table, and every matched flow and packet
// goes into a Go map, so it shares neither the candidate lists nor the
// sort-and-compact set building with Extract.
func (e *Extractor) extractScan(a *Alarm) *TrafficSet {
	flowSeen := make(map[int]struct{})
	pktSeen := make(map[int]struct{})
	idSeen := make(map[int]struct{})
	for _, f := range a.Filters {
		for fi := 0; fi < e.ix.Flows(); fi++ {
			k := e.ix.Flow(fi)
			if !f.MatchFlow(k) {
				continue
			}
			matched := false
			for _, pi := range e.ix.FlowPackets(fi) {
				if ts := e.ix.TS[pi]; f.TimeBounded() && (ts < f.From || ts >= f.To) {
					continue
				}
				matched = true
				if e.gran == trace.GranPacket {
					pktSeen[int(pi)] = struct{}{}
					idSeen[int(pi)] = struct{}{}
				}
			}
			if !matched {
				continue
			}
			flowSeen[fi] = struct{}{}
			switch e.gran {
			case trace.GranUniFlow:
				idSeen[fi] = struct{}{}
			case trace.GranBiFlow:
				// The conversation's id: the lowest flow id with the same
				// canonical key.
				for fj := 0; fj < e.ix.Flows(); fj++ {
					if e.ix.Flow(fj).Canonical() == k.Canonical() {
						idSeen[fj] = struct{}{}
						break
					}
				}
			}
		}
	}
	ts := &TrafficSet{IDs: sortedKeys(idSeen), FlowRefs: sortedKeys(flowSeen)}
	if e.gran == trace.GranPacket {
		ts.PacketIdx = sortedKeys(pktSeen)
	}
	return ts
}

// sortedKeys returns the set's members ascending.
func sortedKeys(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// strictlyAscending reports whether ids is sorted with no duplicates.
func strictlyAscending(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// TestExtractIndexedMatchesScan pins the posting-list prefilter to the
// full-table reference scan: over randomized multi-filter alarms at all
// three granularities, both paths must produce identical traffic sets, every
// set strictly ascending, and IDs must be the index's own ids — FlowRefs at
// uniflow, PacketIdx at packet granularity.
func TestExtractIndexedMatchesScan(t *testing.T) {
	tr := randomFilterTrace(23, 3000)
	ix := trace.NewIndex(tr)
	rng := rand.New(rand.NewSource(42))
	for _, g := range []trace.Granularity{trace.GranPacket, trace.GranUniFlow, trace.GranBiFlow} {
		ext := NewExtractor(ix, g)
		for i := 0; i < 150; i++ {
			a := Alarm{Detector: "rand", Filters: []trace.Filter{randomFilter(rng, ix)}}
			for rng.Intn(3) == 0 { // sometimes multi-filter alarms
				a.Filters = append(a.Filters, randomFilter(rng, ix))
			}
			indexed := ext.Extract(&a)
			scanned := ext.extractScan(&a)
			if !slices.Equal(indexed.IDs, scanned.IDs) {
				t.Fatalf("%v alarm %d: IDs differ (%d indexed vs %d scanned)",
					g, i, len(indexed.IDs), len(scanned.IDs))
			}
			if !slices.Equal(indexed.FlowRefs, scanned.FlowRefs) {
				t.Fatalf("%v alarm %d: FlowRefs differ", g, i)
			}
			if !slices.Equal(indexed.PacketIdx, scanned.PacketIdx) {
				t.Fatalf("%v alarm %d: PacketIdx differ", g, i)
			}
			if !strictlyAscending(indexed.IDs) || !strictlyAscending(indexed.FlowRefs) || !strictlyAscending(indexed.PacketIdx) {
				t.Fatalf("%v alarm %d: a traffic set is not strictly ascending: %+v", g, i, indexed)
			}
			switch g {
			case trace.GranUniFlow:
				if !slices.Equal(indexed.IDs, indexed.FlowRefs) {
					t.Fatalf("uniflow alarm %d: IDs are not FlowRefs", i)
				}
			case trace.GranPacket:
				if !slices.Equal(indexed.IDs, indexed.PacketIdx) {
					t.Fatalf("packet alarm %d: IDs are not PacketIdx", i)
				}
			}
		}
	}
}

// TestBiflowIDIsConversation: over a random index, two flows get the same
// biflow id iff their canonical keys are equal, and a flow whose reverse
// direction is absent from the trace keeps its own id.
func TestBiflowIDIsConversation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := &trace.Trace{Name: "rand-biflow"}
	for i := 0; i < 2000; i++ {
		// One small host/port pool for both ends, so many flows have their
		// reverse in the trace and many do not.
		tr.Append(trace.Packet{
			TS:      int64(i) * 1e3,
			Src:     trace.MakeIPv4(10, 0, 0, byte(rng.Intn(6))),
			Dst:     trace.MakeIPv4(10, 0, 0, byte(rng.Intn(6))),
			SrcPort: uint16(80 + rng.Intn(3)),
			DstPort: uint16(80 + rng.Intn(3)),
			Proto:   []trace.Proto{trace.TCP, trace.UDP}[rng.Intn(2)],
		})
	}
	ix := trace.NewIndex(tr)
	ext := NewExtractor(ix, trace.GranBiFlow)
	ids := make([]int, ix.Flows())
	paired, alone := 0, 0
	for fi := range ids {
		k := ix.Flow(fi)
		// A filter naming the whole 5-tuple resolves to exactly flow fi.
		f := trace.NewFilter().WithSrc(k.Src).WithDst(k.Dst).WithSrcPort(k.SrcPort).WithDstPort(k.DstPort).WithProto(k.Proto)
		ts := ext.Extract(&Alarm{Detector: "one", Filters: []trace.Filter{f}})
		if !reflect.DeepEqual(ts.FlowRefs, []int{fi}) || len(ts.IDs) != 1 {
			t.Fatalf("flow %d (%v): FlowRefs=%v IDs=%v, want exactly itself", fi, k, ts.FlowRefs, ts.IDs)
		}
		ids[fi] = ts.IDs[0]
		if _, ok := ix.FlowID(k.Reverse()); !ok {
			alone++
			if ids[fi] != fi {
				t.Fatalf("flow %d (%v) has no reverse in the trace but biflow id %d", fi, k, ids[fi])
			}
		} else if k != k.Reverse() {
			paired++
		}
	}
	if paired == 0 || alone == 0 {
		t.Fatalf("degenerate trace: %d flows with a reverse, %d without", paired, alone)
	}
	for fi := range ids {
		for fj := range ids {
			same := ix.Flow(fi).Canonical() == ix.Flow(fj).Canonical()
			if (ids[fi] == ids[fj]) != same {
				t.Fatalf("flows %v (id %d) and %v (id %d): same id = %v, same conversation = %v",
					ix.Flow(fi), ids[fi], ix.Flow(fj), ids[fj], ids[fi] == ids[fj], same)
			}
		}
	}
}

// TestWindowSetsMatchExtract pins the per-segment carry to re-extraction:
// random 20 s traces are sealed into 1-4 s segments, random multi-filter alarms
// (timed, untimed and empty-interval) are resolved once per segment with
// SegmentSets, and WindowSets over trace.WindowIndex's remaps must give, at
// every granularity, exactly the sets Extract finds against the window index
// — for every window of up to four consecutive segments and at one and four
// workers.
func TestWindowSetsMatchExtract(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4; trial++ {
		tr := randomFilterTrace(int64(100+trial), 2000)
		var segs []*trace.Segment
		for seg, err := range trace.Segments(ctx, replayTrace(tr), float64(1+trial)) {
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		full := trace.NewIndex(tr)
		alarms := make([]Alarm, 60)
		for i := range alarms {
			alarms[i].Filters = []trace.Filter{randomFilter(rng, full)}
			for rng.Intn(3) == 0 {
				alarms[i].Filters = append(alarms[i].Filters, randomFilter(rng, full))
			}
		}
		for _, g := range []trace.Granularity{trace.GranPacket, trace.GranUniFlow, trace.GranBiFlow} {
			for lo := 0; lo < len(segs); lo++ {
				for hi := lo + 1; hi <= min(lo+4, len(segs)); hi++ {
					window := segs[lo:hi]
					ix, remaps, err := trace.WindowIndex(ctx, window)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						parts := make([]Part, len(window))
						offset := 0
						for k, seg := range window {
							sets, err := SegmentSets(ctx, seg.Index, alarms, g, workers)
							if err != nil {
								t.Fatal(err)
							}
							parts[k] = Part{Sets: sets, Remap: remaps[k], Offset: offset}
							offset += seg.Len()
						}
						got, err := WindowSets(ctx, ix, g, parts, workers)
						if err != nil {
							t.Fatal(err)
						}
						ext := NewExtractor(ix, g)
						for i := range alarms {
							want := ext.Extract(&alarms[i])
							if !slices.Equal(got[i].IDs, want.IDs) || !slices.Equal(got[i].FlowRefs, want.FlowRefs) ||
								!slices.Equal(got[i].PacketIdx, want.PacketIdx) {
								t.Fatalf("trial %d %v segments [%d,%d) workers=%d alarm %d (%v): carried %+v, re-extracted %+v",
									trial, g, lo, hi, workers, i, alarms[i].Filters, got[i], want)
							}
						}
					}
				}
			}
		}
	}
}

// replayTrace fills a buffered channel with the trace's packets and closes it.
func replayTrace(tr *trace.Trace) <-chan trace.Packet {
	ch := make(chan trace.Packet, tr.Len())
	for _, p := range tr.Packets {
		ch <- p
	}
	close(ch)
	return ch
}
