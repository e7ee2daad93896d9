package trace

import "slices"

// RefFlowOrder is the flow-table sort Finish ran before the radix sort — the
// provisional ids ordered by an indirect comparator sort over their keys —
// kept as the reference the production order is compared against. keys are
// distinct, indexed by provisional id.
func RefFlowOrder(keys []FlowKey) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return flowCompare(keys[x], keys[y]) })
	return order
}

// FlowOrder is the production sort over the same input, through sortFlows.
// It is exported to the external tests, which need mawigen's fixture days and
// so cannot live in this package.
func FlowOrder(keys []FlowKey) []int32 {
	order := make([]int32, len(keys))
	packed := make([]packedFlow, len(keys))
	for pid, k := range keys {
		packed[pid] = packFlow(k.Src, k.Dst, k.SrcPort, k.DstPort, k.Proto)
	}
	words := make([]flowWord, 2*len(keys))
	for ci, fw := range sortFlows(packed, words[:len(keys)], words[len(keys):]) {
		order[ci] = fw.id
	}
	return order
}

// Postings returns the two postings setPostings sorts the ids of flows into.
func Postings(flows []FlowKey) (byDst, byDstPort []int32) {
	t := FlowTable{flows: flows}
	n := len(flows)
	t.setPostings(make([]int32, n), make([]int32, n), make([]uint64, 2*n))
	return t.byDst, t.byDstPort
}
