package core

import (
	"sort"

	"mawilab/internal/trace"
)

// TrafficSet is the traffic designated by one alarm at a given granularity
// (§2.1.1): a set of opaque traffic-unit ids used for similarity, plus
// references back to the matched flows/packets for labeling.
type TrafficSet struct {
	// IDs identify the traffic units: packet indices (GranPacket), directed
	// flow hashes (GranUniFlow) or canonical flow hashes (GranBiFlow).
	IDs map[uint64]struct{}
	// FlowRefs are indices into the shared flow table for every matched
	// unidirectional flow, sorted ascending.
	FlowRefs []int
	// PacketIdx are the matched packet indices (populated only at
	// GranPacket), sorted ascending.
	PacketIdx []int
}

// Size returns the number of traffic units in the set.
func (ts *TrafficSet) Size() int { return len(ts.IDs) }

// Extractor resolves alarms to TrafficSets against one trace through its
// shared trace.Index: the index's canonical flow table replaces the
// per-extractor flow map rebuild, and its posting lists prefilter each
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

// Flows returns the number of distinct unidirectional flows indexed.
func (e *Extractor) Flows() int { return e.ix.Flows() }

// FlowKey returns the flow key at table index i.
func (e *Extractor) FlowKey(i int) trace.FlowKey { return e.ix.Flow(i) }

// FlowPackets returns the packet indices of flow table entry i, ascending.
// The slice aliases the index and must not be mutated.
func (e *Extractor) FlowPackets(i int) []int32 { return e.ix.FlowPackets(i) }

// Extract resolves alarm a to its TrafficSet. For each filter it visits the
// index's posting-list candidates (ascending flow ids, a superset of the
// matching flows), or the whole flow table when the filter constrains no
// posted field. Either way matching flows are visited in ascending order —
// the full-table scan in extract_test.go pins the equivalence.
func (e *Extractor) Extract(a *Alarm) *TrafficSet {
	ts := &TrafficSet{IDs: make(map[uint64]struct{})}
	flowSeen := make(map[int]struct{})
	pktSeen := make(map[int]struct{})
	for _, f := range a.Filters {
		if candidates, pruned := e.ix.CandidateFlows(f); pruned {
			for _, fi := range candidates {
				e.matchFlow(f, int(fi), ts, flowSeen, pktSeen)
			}
		} else {
			for fi := 0; fi < e.ix.Flows(); fi++ {
				e.matchFlow(f, fi, ts, flowSeen, pktSeen)
			}
		}
	}
	ts.FlowRefs = sortedKeys(flowSeen)
	if e.gran == trace.GranPacket {
		ts.PacketIdx = sortedKeys(pktSeen)
	}
	return ts
}

// matchFlow folds flow fi into the traffic set if it satisfies filter f.
func (e *Extractor) matchFlow(f trace.Filter, fi int, ts *TrafficSet, flowSeen, pktSeen map[int]struct{}) {
	k := e.ix.Flow(fi)
	if !f.MatchFlow(k) {
		return
	}
	switch e.gran {
	case trace.GranPacket:
		for _, pi32 := range e.ix.FlowPackets(fi) {
			pi := int(pi32)
			if f.TimeBounded() {
				sec := e.ix.Seconds[pi]
				if sec < f.From || sec >= f.To {
					continue
				}
			}
			if _, ok := pktSeen[pi]; ok {
				continue
			}
			pktSeen[pi] = struct{}{}
			ts.IDs[uint64(pi)] = struct{}{}
			if _, ok := flowSeen[fi]; !ok {
				flowSeen[fi] = struct{}{}
			}
		}
	default:
		if f.TimeBounded() && !e.anyPacketIn(fi, f.From, f.To) {
			return
		}
		if _, ok := flowSeen[fi]; ok {
			return
		}
		flowSeen[fi] = struct{}{}
		if e.gran == trace.GranUniFlow {
			ts.IDs[k.DirectedHash()] = struct{}{}
		} else {
			ts.IDs[k.Canonical().FastHash()] = struct{}{}
		}
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

func sortedKeys(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
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
	flowSeen := make(map[int]struct{})
	for _, ts := range sets {
		for _, fi := range ts.FlowRefs {
			flowSeen[fi] = struct{}{}
		}
	}
	flowRefs := sortedKeys(flowSeen)
	ct := CommunityTraffic{Flows: make([]trace.FlowKey, len(flowRefs))}
	for i, fi := range flowRefs {
		ct.Flows[i] = e.ix.Flow(fi)
	}
	if e.gran == trace.GranPacket {
		pktSeen := make(map[int]struct{})
		for _, ts := range sets {
			for _, pi := range ts.PacketIdx {
				pktSeen[pi] = struct{}{}
			}
		}
		ct.Packets = sortedKeys(pktSeen)
	} else {
		for _, fi := range flowRefs {
			for _, pi := range e.ix.FlowPackets(fi) {
				ct.Packets = append(ct.Packets, int(pi))
			}
		}
		sort.Ints(ct.Packets)
	}
	return ct
}
