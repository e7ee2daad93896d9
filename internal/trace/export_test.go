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

// FlowOrder is the production sort over the same input: the keys packed as
// Finish packs them, through sortFlowWords. It is exported to the external
// tests, which need mawigen's fixture days and so cannot live in this
// package.
func FlowOrder(keys []FlowKey) []int32 {
	words := make([]flowWord, 2*len(keys))
	for pid, k := range keys {
		words[pid] = packFlow(k, int32(pid))
	}
	order := make([]int32, len(keys))
	for ci, fw := range sortFlowWords(words[:len(keys)], words[len(keys):]) {
		order[ci] = fw.id
	}
	return order
}
