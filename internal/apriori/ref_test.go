package apriori

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mawilab/internal/trace"
)

// The miner as it stood before transactions became values, kept as the
// reference: a transaction is a heap []Item, L1 items are counted in a map
// and sorted afterwards, every level is re-sorted, and containment is the
// nested item-by-item search.

type refTransaction []Item

func refItemize(tx Transaction) refTransaction {
	out := make(refTransaction, numFields)
	for f := range tx {
		out[f] = Item{Field(f), tx[f]}
	}
	return out
}

func refItemizeAll(txs []Transaction) []refTransaction {
	out := make([]refTransaction, len(txs))
	for i, tx := range txs {
		out[i] = refItemize(tx)
	}
	return out
}

func refMatches(r Rule, tx refTransaction) bool {
	for _, it := range r.Items {
		found := false
		for _, t := range tx {
			if t == it {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func refSortSets(sets []itemset) {
	slices.SortStableFunc(sets, func(a, b itemset) int { return compareItems(a.items, b.items) })
}

func refMine(txs []refTransaction, minSupport float64) []Rule {
	if len(txs) == 0 || minSupport <= 0 {
		return nil
	}
	minCount := int(minSupport * float64(len(txs)))
	if float64(minCount) < minSupport*float64(len(txs)) {
		minCount++ // ceil
	}
	if minCount < 1 {
		minCount = 1
	}

	// L1: frequent single items.
	counts := make(map[Item]int)
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
		}
	}
	var frequent []itemset
	var current []itemset
	for it, c := range counts {
		if c >= minCount {
			current = append(current, itemset{items: []Item{it}, count: c})
		}
	}
	refSortSets(current)
	frequent = append(frequent, current...)

	// Iteratively join (k-1)-itemsets sharing a prefix, prune, count.
	for level := 2; level <= int(numFields) && len(current) > 0; level++ {
		var candidates [][]Item
		for i := 0; i < len(current); i++ {
			for j := i + 1; j < len(current); j++ {
				a, b := current[i].items, current[j].items
				if !samePrefix(a, b) {
					continue
				}
				last := b[len(b)-1]
				if last.Field == a[len(a)-1].Field {
					continue // one item per field
				}
				cand := make([]Item, len(a)+1)
				copy(cand, a)
				cand[len(a)] = last
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		next := make([]itemset, 0, len(candidates))
		for _, cand := range candidates {
			c := refCountSupport(txs, cand)
			if c >= minCount {
				next = append(next, itemset{items: cand, count: c})
			}
		}
		refSortSets(next)
		frequent = append(frequent, next...)
		current = next
	}

	n := float64(len(txs))
	rules := make([]Rule, len(frequent))
	for i, s := range frequent {
		rules[i] = Rule{Items: s.items, Count: s.count, Support: float64(s.count) / n}
	}
	slices.SortStableFunc(rules, func(a, b Rule) int {
		if c := cmp.Compare(b.Degree(), a.Degree()); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return compareItems(a.Items, b.Items)
	})
	return rules
}

func refCountSupport(txs []refTransaction, items []Item) int {
	c := 0
	for _, tx := range txs {
		if refMatches(Rule{Items: items}, tx) {
			c++
		}
	}
	return c
}

// refCoverage is the fraction of transactions matched by at least one of the
// rules — the paper's "rule support of a community", as its own walk.
func refCoverage(txs []refTransaction, rules []Rule) float64 {
	if len(txs) == 0 {
		return 0
	}
	covered := 0
	for _, tx := range txs {
		for _, r := range rules {
			if refMatches(r, tx) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(txs))
}

// checkMineMatchesRef mines txs with both miners and requires the same rules
// in the same order: items, counts, and supports by their float bits.
func checkMineMatchesRef(t *testing.T, txs []Transaction, minSupport float64) {
	t.Helper()
	got := Mine(txs, minSupport)
	want := refMine(refItemizeAll(txs), minSupport)
	if len(got) != len(want) {
		t.Fatalf("support %v over %d transactions: mined %d rules, reference %d", minSupport, len(txs), len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Items, want[i].Items) || got[i].Count != want[i].Count ||
			math.Float64bits(got[i].Support) != math.Float64bits(want[i].Support) {
			t.Fatalf("support %v over %d transactions: rule %d = %v (count %d, support %v), reference %v (count %d, support %v)",
				minSupport, len(txs), i, got[i], got[i].Count, got[i].Support, want[i], want[i].Count, want[i].Support)
		}
	}
	for _, tx := range txs {
		ref := refItemize(tx)
		for _, r := range want {
			if r.Matches(tx) != refMatches(r, ref) {
				t.Fatalf("rule %v against %v: Matches = %v, reference %v", r, tx, r.Matches(tx), !r.Matches(tx))
			}
		}
	}
}

func TestMineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 2, 7, 40, 300} {
		for _, domain := range []int{1, 2, 5, 50} { // 1: a single distinct value per field
			txs := make([]Transaction, n)
			for i := range txs {
				for f := range txs[i] {
					txs[i][f] = uint64(rng.Intn(domain))
				}
			}
			// Duplicate a stretch of transactions outright.
			for i := n / 2; i < n-1; i += 3 {
				txs[i+1] = txs[i]
			}
			for _, s := range []float64{0.01, 0.1, 0.2, 1.0 / 3, 0.5, 1} {
				checkMineMatchesRef(t, txs, s)
			}
		}
	}
}

// fuzzTransactions decodes fuzz bytes into a support in [0.01, 1] and a
// transaction set: byte 0 picks the support, byte 1 the size of the value
// domain (1 makes every transaction identical), and every following four
// bytes are one transaction — at most 256 of them, so that the reference's
// cost per input stays bounded however long the fuzzer grows it.
func fuzzTransactions(data []byte) ([]Transaction, float64) {
	if len(data) < 2 {
		return nil, 0.2
	}
	support := float64(1+int(data[0])%100) / 100
	domain := uint64(data[1])%16 + 1
	var txs []Transaction
	for data = data[2:]; len(data) >= int(numFields) && len(txs) < 256; data = data[numFields:] {
		var tx Transaction
		for f := range tx {
			tx[f] = uint64(data[f]) % domain
		}
		txs = append(txs, tx)
	}
	return txs, support
}

// FuzzMine is the differential that keeps the value-transaction miner honest
// now that the []Item one lives only here.
func FuzzMine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{19, 0, 1, 2, 3, 4, 5, 6, 7, 8})                         // one distinct value
	f.Add([]byte{0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1})              // duplicates at 1 % support
	f.Add([]byte{99, 15, 9, 8, 7, 6, 9, 8, 7, 6})                        // support 1
	f.Add([]byte{32, 4, 0, 1, 2, 3, 0, 1, 2, 7, 0, 1, 6, 7, 0, 5, 6, 7}) // shrinking shared prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, support := fuzzTransactions(data)
		checkMineMatchesRef(t, txs, support)
	})
}

// checkMaximalRules requires MaximalRules to return exactly what labeling
// used to compute, Maximal(Mine(...)).
func checkMaximalRules(t *testing.T, txs []Transaction, minSupport float64) {
	t.Helper()
	got := MaximalRules(txs, minSupport)
	want := Maximal(Mine(txs, minSupport))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("support %v over %d transactions: MaximalRules = %s, Maximal(Mine) = %s", minSupport, len(txs), describeRules(got), describeRules(want))
	}
}

// describeRules renders rules with their counts and supports, which
// Rule.String leaves out.
func describeRules(rules []Rule) string {
	var b strings.Builder
	for _, r := range rules {
		fmt.Fprintf(&b, "[%v count %d support %v]", r, r.Count, r.Support)
	}
	return b.String()
}

// TestMaximalRulesMatchesMine covers the one-flow shortcut and every way
// out of it.
func TestMaximalRulesMatchesMine(t *testing.T) {
	flow := trace.FlowKey{Src: trace.MakeIPv4(10, 0, 0, 1), SrcPort: 1234, Dst: trace.MakeIPv4(10, 0, 1, 2), DstPort: 80, Proto: trace.TCP}
	udp := flow
	udp.Proto = trace.UDP
	other := flow
	other.DstPort = 443
	one := FromFlow(flow)
	repeat := func(tx Transaction, n int) []Transaction { return slices.Repeat([]Transaction{tx}, n) }
	cases := map[string][]Transaction{
		"empty":              nil,
		"one transaction":    {one},
		"n identical":        repeat(one, 9),
		"protocol only":      {FromFlow(flow), FromFlow(udp), FromFlow(flow)},
		"distinct flows":     {one, FromFlow(other), flowTx(3, 4, 5, 6)},
		"duplicates + other": append(repeat(one, 7), FromFlow(other), one, flowTx(3, 4, 5, 6)),
		"last differs":       append(repeat(one, 5), FromFlow(other)),
	}
	for name, txs := range cases {
		t.Run(name, func(t *testing.T) {
			for _, s := range []float64{1, 0.2, 1 / float64(max(len(txs), 1)), 0, -1, 1.5} {
				checkMaximalRules(t, txs, s)
			}
		})
	}
	if got := MaximalRules(repeat(one, 4), 0.2); len(got) != 1 || got[0].Degree() != 4 || got[0].Count != 4 || got[0].Support != 1 {
		t.Fatalf("four identical transactions: %v", got)
	}
}

// FuzzMaximalRules is the differential for labeling's rule miner: whatever
// the transactions and support, MaximalRules is Maximal(Mine(...)).
func FuzzMaximalRules(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{19, 0, 1, 2, 3, 4})                               // one transaction
	f.Add([]byte{19, 0, 1, 2, 3, 4, 5, 6, 7, 8})                   // identical, domain 1
	f.Add([]byte{99, 15, 9, 8, 7, 6, 9, 8, 7, 6, 9, 8, 7, 6})      // identical at support 1
	f.Add([]byte{0, 15, 9, 8, 7, 6, 9, 8, 7, 6, 9, 8, 7, 5})       // the last differs
	f.Add([]byte{32, 4, 0, 1, 2, 3, 0, 1, 2, 7, 0, 1, 6, 7, 0, 1}) // distinct
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, support := fuzzTransactions(data)
		checkMaximalRules(t, txs, support)
	})
}
