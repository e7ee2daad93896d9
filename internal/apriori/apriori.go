// Package apriori implements the Apriori frequent-itemset algorithm
// (Agrawal & Srikant, VLDB'94) with the paper's modification: the minimum
// support s is expressed as a *percentage of the data* rather than an
// absolute count (§4.1.1).
//
// Transactions here are traffic 4-tuples — source IP, source port,
// destination IP, destination port — and the mined "rules" are the partial
// 4-tuples (with wildcards) that describe the prominent trends of a
// community's traffic, e.g. <IPA, 80, IPB, *>.
//
// A Transaction is a fixed four-slot value, one slot per Field: itemizing a
// flow allocates nothing, "does this transaction contain these items" is one
// indexed comparison per item, and the miner's only lookup structure is sort
// order — a field's frequent values are the long runs of its sorted column.
package apriori

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mawilab/internal/radix"
	"mawilab/internal/trace"
)

// Field identifies which header field an item constrains.
type Field uint8

// The four fields of the paper's rules, in rendering order.
const (
	FieldSrcIP Field = iota
	FieldSrcPort
	FieldDstIP
	FieldDstPort
	numFields
)

// String names the field.
func (f Field) String() string {
	switch f {
	case FieldSrcIP:
		return "srcIP"
	case FieldSrcPort:
		return "srcPort"
	case FieldDstIP:
		return "dstIP"
	case FieldDstPort:
		return "dstPort"
	default:
		return fmt.Sprintf("field(%d)", uint8(f))
	}
}

// Item is one (field, value) constraint. IPs store the uint32 address,
// ports the port number.
type Item struct {
	Field Field
	Value uint64
}

// String renders the item, resolving IPs to dotted quads.
func (it Item) String() string {
	switch it.Field {
	case FieldSrcIP, FieldDstIP:
		return it.Field.String() + "=" + trace.IPv4(it.Value).String()
	default:
		return fmt.Sprintf("%s=%d", it.Field, it.Value)
	}
}

// Transaction is the itemized form of one traffic unit (a flow, or a packet
// through its flow): the value of every field, indexed by Field.
type Transaction [numFields]uint64

// FromFlow itemizes a flow key into the four 4-tuple values.
func FromFlow(k trace.FlowKey) Transaction {
	return Transaction{
		FieldSrcIP:   uint64(k.Src),
		FieldSrcPort: uint64(k.SrcPort),
		FieldDstIP:   uint64(k.Dst),
		FieldDstPort: uint64(k.DstPort),
	}
}

// contains reports whether the transaction carries every item — the one
// transaction-against-items test of the package.
func contains(tx Transaction, items []Item) bool {
	for _, it := range items {
		if tx[it.Field] != it.Value {
			return false
		}
	}
	return true
}

// Rule is a frequent itemset: a partial 4-tuple with its support.
type Rule struct {
	Items   []Item  // sorted by Field, at most one per field
	Count   int     // transactions containing all items
	Support float64 // Count / len(transactions)
}

// Degree returns the number of constrained fields (the paper's "rule
// degree", in [0,4]).
func (r Rule) Degree() int { return len(r.Items) }

// Matches reports whether the transaction contains every item of the rule.
func (r Rule) Matches(tx Transaction) bool { return contains(tx, r.Items) }

// Fields renders the rule's four fields in the paper's order — srcIP,
// srcPort, dstIP, dstPort, indexed by Field — with "*" for a wildcard. It
// is the one rendering of a rule: String, the CSV wire schema's best-rule
// columns and the admd slices are all built from it.
func (r Rule) Fields() [4]string {
	f := [4]string{"*", "*", "*", "*"}
	for _, it := range r.Items {
		switch it.Field {
		case FieldSrcIP, FieldDstIP:
			f[it.Field] = trace.IPv4(it.Value).String()
		default:
			f[it.Field] = strconv.FormatUint(it.Value, 10)
		}
	}
	return f
}

// String renders the rule in the paper's notation <srcIP, srcPort, dstIP,
// dstPort> with * wildcards.
func (r Rule) String() string {
	f := r.Fields()
	return "<" + strings.Join(f[:], ", ") + ">"
}

// Mine returns every itemset whose support is at least minSupport (a
// fraction in (0,1], e.g. 0.2 for the paper's s=20%). Rules come back
// sorted by descending degree, then descending support, then lexical item
// order, so results are deterministic.
//
// The pipeline mines through MaximalRules. Mine stays exported only
// because cmd/mawibench's apriori.mine_s stage calls it directly.
func Mine(txs []Transaction, minSupport float64) []Rule {
	if len(txs) == 0 || minSupport <= 0 {
		return nil
	}
	minCount := supportCount(len(txs), minSupport)

	// L1: a field's frequent values are the runs of its sorted column at
	// least minCount long, so the single items come out in itemset order.
	// The column and the radix sort's scratch are one allocation, made
	// whatever the length, so Mine allocates alike on both sides of the
	// sort's small-slice threshold.
	var current []itemset
	buf := make([]uint64, 2*len(txs))
	for f := Field(0); f < numFields; f++ {
		column := buf[:len(txs)]
		for i := range txs {
			column[i] = txs[i][f]
		}
		column = radix.Sort(column, buf[len(txs):])
		for lo := 0; lo < len(column); {
			hi := lo + 1
			for hi < len(column) && column[hi] == column[lo] {
				hi++
			}
			if hi-lo >= minCount {
				current = append(current, itemset{items: []Item{{f, column[lo]}}, count: hi - lo})
			}
			lo = hi
		}
	}
	frequent := slices.Clone(current)

	// Iteratively join (k-1)-itemsets sharing a prefix, prune, count. The
	// join walks pairs of an ordered level in order, so every level is born
	// in itemset order too.
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
			c := countSupport(txs, cand)
			if c >= minCount {
				next = append(next, itemset{items: cand, count: c})
			}
		}
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

// supportCount is the least count a frequent itemset of n transactions needs
// at minSupport: ⌈minSupport·n⌉, and at least 1.
func supportCount(n int, minSupport float64) int {
	c := int(minSupport * float64(n))
	if float64(c) < minSupport*float64(n) {
		c++ // ceil
	}
	return max(c, 1)
}

// MaximalRules returns Maximal(Mine(txs, minSupport)), the rules a
// community is labeled with. When every transaction is the same 4-tuple — a
// community of one flow, or of flows that differ only in protocol — the
// lattice has one maximal itemset, the whole tuple, and MaximalRules
// returns it without mining: all four items, Count len(txs), Support 1.
func MaximalRules(txs []Transaction, minSupport float64) []Rule {
	if len(txs) == 0 || minSupport <= 0 || supportCount(len(txs), minSupport) > len(txs) ||
		slices.ContainsFunc(txs[1:], func(tx Transaction) bool { return tx != txs[0] }) {
		return Maximal(Mine(txs, minSupport))
	}
	items := make([]Item, numFields)
	for f, v := range txs[0] {
		items[f] = Item{Field(f), v}
	}
	return []Rule{{Items: items, Count: len(txs), Support: 1}}
}

// itemset is an internal candidate/frequent itemset with its count.
type itemset struct {
	items []Item
	count int
}

// compareItems orders itemsets item by item — field, then value — with a
// proper prefix before its extensions.
func compareItems(a, b []Item) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := cmp.Compare(a[i].Field, b[i].Field); c != 0 {
			return c
		}
		if c := cmp.Compare(a[i].Value, b[i].Value); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

func samePrefix(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	// Join requires a strictly ordered pair of final items.
	la, lb := a[len(a)-1], b[len(b)-1]
	if la.Field != lb.Field {
		return la.Field < lb.Field
	}
	return la.Value < lb.Value
}

func countSupport(txs []Transaction, items []Item) int {
	c := 0
	for _, tx := range txs {
		if contains(tx, items) {
			c++
		}
	}
	return c
}

// Maximal filters rules down to the maximal frequent itemsets: those with
// no frequent proper superset. These are the concise labels assigned to a
// community (§5) — each anomalous traffic annotated with its most specific
// rule.
//
// The pipeline mines through MaximalRules. Maximal stays exported only
// because cmd/mawibench's apriori.mine_s stage calls it directly.
func Maximal(rules []Rule) []Rule {
	var out []Rule
	for i, r := range rules {
		isMax := true
		for j, s := range rules {
			if i == j || len(s.Items) <= len(r.Items) {
				continue
			}
			if containsAll(s.Items, r.Items) {
				isMax = false
				break
			}
		}
		if isMax {
			out = append(out, r)
		}
	}
	return out
}

func containsAll(super, sub []Item) bool {
	for _, it := range sub {
		found := false
		for _, s := range super {
			if s == it {
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

// MeanDegree returns the average number of items per rule — the paper's
// "rule degree of a community". Zero when there are no rules, meaning the
// miner failed to characterize the traffic.
func MeanDegree(rules []Rule) float64 {
	if len(rules) == 0 {
		return 0
	}
	s := 0
	for _, r := range rules {
		s += r.Degree()
	}
	return float64(s) / float64(len(rules))
}
