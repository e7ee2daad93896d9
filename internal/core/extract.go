package core

import (
	"context"
	"slices"

	"mawilab/internal/parallel"
	"mawilab/internal/radix"
	"mawilab/internal/simgraph"
	"mawilab/internal/trace"
)

// TrafficSet is the traffic designated by one alarm at a given granularity
// (§2.1.1), in the shared index's own exact ids: the traffic units compared
// for similarity, plus the matched flows/packets for labeling. Every slice is
// strictly ascending and must not be mutated.
type TrafficSet struct {
	// IDs identify the traffic units: it is PacketIdx at GranPacket, FlowRefs
	// at GranUniFlow, and at GranBiFlow one conversation id per matched flow —
	// the smaller of the flow's id and its reverse direction's, so both
	// directions of a conversation share one id.
	IDs simgraph.Set
	// FlowRefs are indices into the shared flow table for every matched
	// unidirectional flow.
	FlowRefs []int
	// PacketIdx are the matched packet indices (populated only at
	// GranPacket).
	PacketIdx []int
}

// Size returns the number of traffic units in the set.
func (ts *TrafficSet) Size() int { return len(ts.IDs) }

// Extractor resolves alarms to TrafficSets against one trace through its
// shared trace.Index: the index's canonical flow table replaces the
// per-extractor flow map rebuild, and its sorted postings prefilter each
// alarm filter to the flows that can match, replacing the old
// O(alarms × flows) full-table scan. This is the "traffic extractor /
// oracle" of §2.1.1.
type Extractor struct {
	ix   *trace.Index
	gran trace.Granularity
}

// NewExtractor returns an extractor over the shared index at granularity g.
// Construction is free — every flow structure lives in the index.
func NewExtractor(ix *trace.Index, g trace.Granularity) *Extractor {
	return &Extractor{ix: ix, gran: g}
}

// Index returns the shared trace index the extractor resolves against.
func (e *Extractor) Index() *trace.Index { return e.ix }

// Extract resolves alarm a to its TrafficSet. For each filter it visits the
// index's candidate flows — a superset of the matching flows, the whole flow
// table when the filter constrains no posted field; the full-table scan in
// extract_test.go pins the equivalence. Overlapping filters may match a flow
// or packet twice; sorting and compacting the collected ids once at the end
// makes them sets.
func (e *Extractor) Extract(a *Alarm) *TrafficSet {
	ts := e.refs(a)
	e.setIDs(ts)
	return ts
}

// refs resolves a's matched flows and, at GranPacket, packets as sets,
// leaving the traffic units to setIDs.
func (e *Extractor) refs(a *Alarm) *TrafficSet {
	ts := &TrafficSet{}
	for _, f := range a.Filters {
		cands := e.ix.CandidateFlows(f)
		for i, n := 0, cands.Len(); i < n; i++ {
			e.matchFlow(f, cands.At(i), ts)
		}
	}
	ts.FlowRefs = sortedSet(ts.FlowRefs, nil)
	if e.gran == trace.GranPacket {
		ts.PacketIdx = sortedSet(ts.PacketIdx, nil)
	}
	return ts
}

// setIDs derives the traffic units of a set from its flows and packets.
func (e *Extractor) setIDs(ts *TrafficSet) {
	switch e.gran {
	case trace.GranPacket:
		ts.IDs = ts.PacketIdx
	case trace.GranUniFlow:
		ts.IDs = ts.FlowRefs
	default:
		ids := make([]int, len(ts.FlowRefs))
		for i, fi := range ts.FlowRefs {
			ids[i] = fi
			if ri, ok := e.ix.FlowID(e.ix.Flow(fi).Reverse()); ok {
				ids[i] = min(fi, ri)
			}
		}
		ts.IDs = sortedSet(ids, nil)
	}
}

// touches reports whether some filter of a can match a packet of ix: an
// untimed filter anywhere, a timed one only when its [From, To) overlaps the
// timestamps of ix's first to last packet.
func touches(a *Alarm, ix *trace.Index) bool {
	n := ix.Len()
	if n == 0 {
		return false
	}
	first, last := ix.TS[0], ix.TS[n-1]
	for _, f := range a.Filters {
		if !f.TimeBounded() || f.From <= last && f.To > first {
			return true
		}
	}
	return false
}

// SegmentSets resolves alarms against one sealed segment's index, in that
// index's own ids: sets[i] holds the flows and, at GranPacket, the packets
// alarm i matches there, as Extract finds them, with the traffic units left
// to WindowSets. An alarm that cannot touch the segment — every filter timed,
// none overlapping the segment's packets — is not matched at all and gets
// nil. The alarms fan out across up to workers goroutines.
func SegmentSets(ctx context.Context, ix *trace.Index, alarms []Alarm, g trace.Granularity, workers int) ([]*TrafficSet, error) {
	ext := NewExtractor(ix, g)
	sets := make([]*TrafficSet, len(alarms))
	err := parallel.ForEach(ctx, len(alarms), workers, func(_ context.Context, i int) error {
		if touches(&alarms[i], ix) {
			sets[i] = ext.refs(&alarms[i])
		}
		return nil
	})
	return sets, err
}

// Part is one sealed segment's share of a window index.
type Part struct {
	// Sets[i] is window alarm i's traffic in the segment, as SegmentSets
	// resolved it (nil when the alarm cannot touch the segment).
	Sets []*TrafficSet
	// Remap maps the segment's flow ids to the window's (trace.WindowIndex).
	// It is nil only for a segment that is its own window, the one part of
	// a batch labeling.
	Remap []int32
	// Offset is the window's id of the segment's first packet.
	Offset int
}

// WindowSets builds every window alarm's TrafficSet over the window index ix
// from its per-segment traffic: each segment's flow ids mapped through the
// segment's remap and merged, its packet ids shifted by its offset, and the
// traffic units derived last, against ix (a conversation may span segments).
// A window flow matches exactly when some segment holding its key has a
// matching packet, so the result equals Extract of every alarm against ix;
// the stream tests pin that. Alarms fan out across up to workers goroutines.
func WindowSets(ctx context.Context, ix *trace.Index, g trace.Granularity, parts []Part, workers int) ([]*TrafficSet, error) {
	n := 0
	if len(parts) > 0 {
		n = len(parts[0].Sets)
	}
	ext := NewExtractor(ix, g)
	sets := make([]*TrafficSet, n)
	err := parallel.ForEachRange(ctx, n, workers, func(_ context.Context, lo, hi int) error {
		for i := lo; i < hi; i++ {
			sets[i] = ext.merge(parts, i)
		}
		return nil
	})
	return sets, err
}

// merge builds alarm i's window set from its sets in the window's parts. A
// remapped list stays ascending — a segment's flow table and the window's
// share one canonical order — and the segments' packets follow each other,
// so only flows held by more than one segment need a sort.
func (e *Extractor) merge(parts []Part, i int) *TrafficSet {
	ts := &TrafficSet{}
	if len(parts) == 1 && parts[0].Remap == nil {
		if s := parts[0].Sets[i]; s != nil {
			ts.FlowRefs, ts.PacketIdx = s.FlowRefs, s.PacketIdx
		}
		e.setIDs(ts)
		return ts
	}
	nf, np, holders := 0, 0, 0
	for _, p := range parts {
		if s := p.Sets[i]; s != nil && len(s.FlowRefs) > 0 {
			nf += len(s.FlowRefs)
			np += len(s.PacketIdx)
			holders++
		}
	}
	switch {
	case holders > 1:
		ts.FlowRefs = make([]int, 0, 2*nf) // the second half is the sort's scratch
	case holders == 1:
		ts.FlowRefs = make([]int, 0, nf)
	}
	if np > 0 {
		ts.PacketIdx = make([]int, 0, np)
	}
	for _, p := range parts {
		s := p.Sets[i]
		if s == nil {
			continue
		}
		for _, fi := range s.FlowRefs {
			ts.FlowRefs = append(ts.FlowRefs, int(p.Remap[fi]))
		}
		for _, pi := range s.PacketIdx {
			ts.PacketIdx = append(ts.PacketIdx, pi+p.Offset)
		}
	}
	if holders > 1 {
		ts.FlowRefs = sortedSet(ts.FlowRefs, ts.FlowRefs[nf:2*nf])
	}
	e.setIDs(ts)
	return ts
}

// matchFlow appends flow fi — and, at packet granularity, its packets inside
// the filter's interval — to the traffic set if it satisfies filter f.
func (e *Extractor) matchFlow(f trace.Filter, fi int, ts *TrafficSet) {
	if !f.MatchFlow(e.ix.Flow(fi)) {
		return
	}
	if e.gran != trace.GranPacket {
		if !f.TimeBounded() || e.anyPacketIn(fi, f.From, f.To) {
			ts.FlowRefs = append(ts.FlowRefs, fi)
		}
		return
	}
	matched := len(ts.PacketIdx)
	for _, pi := range e.ix.FlowPackets(fi) {
		if f.TimeBounded() {
			if at := e.ix.TS[pi]; at < f.From || at >= f.To {
				continue
			}
		}
		ts.PacketIdx = append(ts.PacketIdx, int(pi))
	}
	if len(ts.PacketIdx) > matched {
		ts.FlowRefs = append(ts.FlowRefs, fi)
	}
}

// anyPacketIn reports whether flow fi has a packet in [from,to) µs.
func (e *Extractor) anyPacketIn(fi int, from, to int64) bool {
	for _, pi := range e.ix.FlowPackets(fi) {
		if ts := e.ix.TS[pi]; ts >= from && ts < to {
			return true
		}
	}
	return false
}

// sortedSet sorts the index's ids ascending — a radix sort over the bytes
// that vary, two for a day of under 65 536 packets — and drops duplicates.
// The result lives in ids or in scratch (radix.Sort's rule; nil allocates
// past the small-slice threshold), whichever the sort ended in.
func sortedSet(ids, scratch []int) []int {
	return slices.Compact(radix.Sort(ids, scratch))
}

// CommunityTraffic is the union of member alarms' traffic, materialized for
// labeling: distinct flows and the packets they carry. FlowRefs[i] is the
// shared index's flow-table id of Flows[i] — ascending, so Flows is in
// canonical order — and is what the labeling tail walks packet runs by;
// nothing past Union looks a key up again.
type CommunityTraffic struct {
	Flows    []trace.FlowKey
	FlowRefs []int
	Packets  []int
}

// Union merges the traffic of several alarm sets into community traffic.
// At flow granularities the packets are all packets of the matched flows;
// at packet granularity they are exactly the matched packets. Each of the
// two unions is sized once from the lengths of the runs it concatenates, in
// a buffer of twice that: the runs fill the first half and the sort's
// scratch is the second.
func (e *Extractor) Union(sets []*TrafficSet) CommunityTraffic {
	nf, np := 0, 0
	for _, ts := range sets {
		nf += len(ts.FlowRefs)
		np += len(ts.PacketIdx)
	}
	buf := make([]int, 0, 2*nf)
	for _, ts := range sets {
		buf = append(buf, ts.FlowRefs...)
	}
	ct := CommunityTraffic{FlowRefs: sortedSet(buf, buf[nf:2*nf])}
	ct.Flows = make([]trace.FlowKey, len(ct.FlowRefs))
	for i, fi := range ct.FlowRefs {
		ct.Flows[i] = e.ix.Flow(fi)
		if e.gran != trace.GranPacket {
			np += len(e.ix.FlowPackets(fi))
		}
	}

	buf = make([]int, 0, 2*np)
	for _, ts := range sets {
		buf = append(buf, ts.PacketIdx...) // empty at flow granularities
	}
	if e.gran != trace.GranPacket {
		for _, fi := range ct.FlowRefs {
			for _, pi := range e.ix.FlowPackets(fi) {
				buf = append(buf, int(pi))
			}
		}
	}
	ct.Packets = sortedSet(buf, buf[np:2*np])
	return ct
}
