package core

import (
	"slices"

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
	ts := &TrafficSet{}
	for _, f := range a.Filters {
		cands := e.ix.CandidateFlows(f)
		for i, n := 0, cands.Len(); i < n; i++ {
			e.matchFlow(f, cands.At(i), ts)
		}
	}
	ts.FlowRefs = sortedSet(ts.FlowRefs, nil)
	switch e.gran {
	case trace.GranPacket:
		ts.PacketIdx = sortedSet(ts.PacketIdx, nil)
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
			if sec := e.ix.Seconds[pi]; sec < f.From || sec >= f.To {
				continue
			}
		}
		ts.PacketIdx = append(ts.PacketIdx, int(pi))
	}
	if len(ts.PacketIdx) > matched {
		ts.FlowRefs = append(ts.FlowRefs, fi)
	}
}

// anyPacketIn reports whether flow fi has a packet in [from,to) seconds.
func (e *Extractor) anyPacketIn(fi int, from, to float64) bool {
	for _, pi := range e.ix.FlowPackets(fi) {
		sec := e.ix.Seconds[pi]
		if sec >= from && sec < to {
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
