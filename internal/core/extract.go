package core

import (
	"slices"

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

// Granularity returns the traffic granularity of the extractor.
func (e *Extractor) Granularity() trace.Granularity { return e.gran }

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
	ts.FlowRefs = sortedSet(ts.FlowRefs)
	switch e.gran {
	case trace.GranPacket:
		ts.PacketIdx = sortedSet(ts.PacketIdx)
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
		ts.IDs = sortedSet(ids)
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

// sortedSet sorts ids ascending and drops duplicates, in place.
func sortedSet(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// CommunityTraffic is the union of member alarms' traffic, materialized for
// labeling: distinct flows and the packets they carry.
type CommunityTraffic struct {
	Flows   []trace.FlowKey
	Packets []int
}

// Union merges the traffic of several alarm sets into community traffic.
// At flow granularities the packets are all packets of the matched flows;
// at packet granularity they are exactly the matched packets.
func (e *Extractor) Union(sets []*TrafficSet) CommunityTraffic {
	var flowRefs, packets []int
	for _, ts := range sets {
		flowRefs = append(flowRefs, ts.FlowRefs...)
		packets = append(packets, ts.PacketIdx...)
	}
	flowRefs = sortedSet(flowRefs)
	ct := CommunityTraffic{Flows: make([]trace.FlowKey, len(flowRefs))}
	for i, fi := range flowRefs {
		ct.Flows[i] = e.ix.Flow(fi)
	}
	if e.gran != trace.GranPacket {
		for _, fi := range flowRefs {
			for _, pi := range e.ix.FlowPackets(fi) {
				packets = append(packets, int(pi))
			}
		}
	}
	ct.Packets = sortedSet(packets)
	return ct
}
