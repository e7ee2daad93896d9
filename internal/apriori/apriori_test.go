package apriori

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mawilab/internal/trace"
)

func flowTx(srcOct byte, sp uint16, dstOct byte, dp uint16) Transaction {
	return FromFlow(trace.FlowKey{
		Src: trace.MakeIPv4(10, 0, 0, srcOct), SrcPort: sp,
		Dst: trace.MakeIPv4(10, 0, 1, dstOct), DstPort: dp,
		Proto: trace.TCP,
	})
}

func TestMineFindsDominantPattern(t *testing.T) {
	// 80% of flows go to dst port 80 on host .1; the rest are noise.
	var txs []Transaction
	for i := 0; i < 80; i++ {
		txs = append(txs, flowTx(byte(i%5), uint16(1024+i), 1, 80))
	}
	for i := 0; i < 20; i++ {
		txs = append(txs, flowTx(byte(100+i), uint16(2000+i), byte(50+i), uint16(5000+i)))
	}
	rules := Mine(txs, 0.2)
	if len(rules) == 0 {
		t.Fatal("no rules mined")
	}
	// The itemset {dstIP=.1, dstPort=80} must be frequent.
	found := false
	for _, r := range rules {
		hasIP, hasPort := false, false
		for _, it := range r.Items {
			if it.Field == FieldDstIP && trace.IPv4(it.Value) == trace.MakeIPv4(10, 0, 1, 1) {
				hasIP = true
			}
			if it.Field == FieldDstPort && it.Value == 80 {
				hasPort = true
			}
		}
		if hasIP && hasPort && r.Degree() == 2 {
			found = true
			if r.Count != 80 {
				t.Errorf("dominant rule count = %d, want 80", r.Count)
			}
		}
	}
	if !found {
		t.Error("dominant {dstIP, dstPort=80} itemset not mined")
	}
}

func TestMineSupportThresholdIsCeil(t *testing.T) {
	// 10 transactions, minSupport 0.25 → ceil(2.5)=3 occurrences needed.
	var txs []Transaction
	for i := 0; i < 2; i++ {
		txs = append(txs, flowTx(1, 1000, 1, 80)) // appears twice
	}
	for i := 0; i < 8; i++ {
		txs = append(txs, flowTx(byte(10+i), uint16(3000+i), byte(20+i), uint16(4000+i)))
	}
	rules := Mine(txs, 0.25)
	for _, r := range rules {
		if r.Count < 3 {
			t.Errorf("rule %v has count %d below ceil threshold 3", r, r.Count)
		}
	}
}

func TestMineEmptyInput(t *testing.T) {
	if Mine(nil, 0.2) != nil {
		t.Error("nil transactions should mine nothing")
	}
	if Mine([]Transaction{flowTx(1, 1, 1, 1)}, 0) != nil {
		t.Error("non-positive support should mine nothing")
	}
}

func TestMineFullTupleWhenUniform(t *testing.T) {
	// All transactions identical → the full 4-item rule at 100% support.
	var txs []Transaction
	for i := 0; i < 10; i++ {
		txs = append(txs, flowTx(1, 1234, 2, 80))
	}
	rules := Mine(txs, 0.2)
	best := rules[0] // sorted by degree desc
	if best.Degree() != 4 {
		t.Fatalf("best degree = %d, want 4 (rules: %v)", best.Degree(), rules)
	}
	if best.Support != 1.0 {
		t.Errorf("support = %f, want 1", best.Support)
	}
	// All 15 non-empty subsets of the 4-tuple are frequent.
	if len(rules) != 15 {
		t.Errorf("mined %d rules, want 15", len(rules))
	}
}

func TestSupportMonotonicityProperty(t *testing.T) {
	// Anti-monotone property: a rule's support never exceeds any subset's.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var txs []Transaction
		for i := 0; i < 40; i++ {
			txs = append(txs, flowTx(byte(rng.Intn(4)), uint16(rng.Intn(3)+80),
				byte(rng.Intn(4)), uint16(rng.Intn(3)+8000)))
		}
		rules := Mine(txs, 0.1)
		bySig := make(map[string]int)
		sig := func(items []Item) string {
			var b strings.Builder
			for _, it := range items {
				b.WriteString(it.String())
				b.WriteByte(';')
			}
			return b.String()
		}
		for _, r := range rules {
			bySig[sig(r.Items)] = r.Count
		}
		for _, r := range rules {
			if len(r.Items) < 2 {
				continue
			}
			// Drop each item: subset must exist with count >= r.Count.
			for drop := range r.Items {
				sub := make([]Item, 0, len(r.Items)-1)
				for i, it := range r.Items {
					if i != drop {
						sub = append(sub, it)
					}
				}
				c, ok := bySig[sig(sub)]
				if !ok || c < r.Count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMaximal(t *testing.T) {
	var txs []Transaction
	for i := 0; i < 10; i++ {
		txs = append(txs, flowTx(1, 1234, 2, 80))
	}
	rules := Mine(txs, 0.2)
	max := Maximal(rules)
	if len(max) != 1 || max[0].Degree() != 4 {
		t.Errorf("Maximal = %v, want single degree-4 rule", max)
	}
}

func TestCoverage(t *testing.T) {
	txs := []Transaction{
		flowTx(1, 1000, 2, 80),
		flowTx(1, 1001, 2, 80),
		flowTx(9, 9999, 9, 9999),
	}
	port80 := Rule{Items: []Item{{FieldDstPort, 80}}}
	matched := 0
	for _, tx := range txs {
		if port80.Matches(tx) {
			matched++
		}
	}
	if matched != 2 {
		t.Errorf("port-80 rule matches %d of 3 transactions, want 2", matched)
	}
	if (Rule{}).Matches(txs[2]) != true {
		t.Error("the empty rule constrains nothing and must match")
	}
	cov := refCoverage(refItemizeAll(txs), []Rule{port80})
	if cov != float64(matched)/float64(len(txs)) {
		t.Errorf("reference coverage = %f, want 2/3", cov)
	}
	if refCoverage(nil, []Rule{port80}) != 0 {
		t.Error("empty coverage should be 0")
	}
	if refCoverage(refItemizeAll(txs), nil) != 0 {
		t.Error("no rules should cover nothing")
	}
}

func TestMeanDegreePaperExample(t *testing.T) {
	// Paper §4.1.1: rules <IPA,*,IPB,*> and <IPA,80,IPC,12345> have degree
	// (2+4)/2 = 3.
	r1 := Rule{Items: []Item{{FieldSrcIP, 1}, {FieldDstIP, 2}}}
	r2 := Rule{Items: []Item{{FieldSrcIP, 1}, {FieldSrcPort, 80}, {FieldDstIP, 3}, {FieldDstPort, 12345}}}
	if d := MeanDegree([]Rule{r1, r2}); d != 3 {
		t.Errorf("mean degree = %f, want 3", d)
	}
	if MeanDegree(nil) != 0 {
		t.Error("no rules → degree 0")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Items: []Item{
		{FieldSrcIP, uint64(trace.MakeIPv4(1, 2, 3, 4))},
		{FieldSrcPort, 80},
	}}
	if f := r.Fields(); f != [4]string{"1.2.3.4", "80", "*", "*"} {
		t.Errorf("Fields() = %q", f)
	}
	s := r.String()
	if s != "<1.2.3.4, 80, *, *>" {
		t.Errorf("String() = %q", s)
	}
	empty := Rule{}
	if empty.String() != "<*, *, *, *>" {
		t.Errorf("empty rule = %q", empty.String())
	}
}

func TestItemAndFieldString(t *testing.T) {
	it := Item{FieldDstIP, uint64(trace.MakeIPv4(9, 9, 9, 9))}
	if !strings.Contains(it.String(), "9.9.9.9") {
		t.Errorf("Item.String = %q", it.String())
	}
	if FieldSrcPort.String() != "srcPort" || Field(9).String() == "" {
		t.Error("field names wrong")
	}
}

func TestFromFlowFillsEverySlot(t *testing.T) {
	k := trace.FlowKey{Src: trace.MakeIPv4(1, 1, 1, 1), Dst: trace.MakeIPv4(2, 2, 2, 2), SrcPort: 5, DstPort: 6, Proto: trace.UDP}
	want := Transaction{FieldSrcIP: uint64(k.Src), FieldSrcPort: 5, FieldDstIP: uint64(k.Dst), FieldDstPort: 6}
	if tx := FromFlow(k); tx != want {
		t.Errorf("FromFlow = %v, want %v", tx, want)
	}
}

// TestMineAllocsIndependentOfTransactions pins that mining allocates per
// frequent itemset, never per transaction: the same ten flows repeated 500
// times mine the same rules from the same number of objects.
func TestMineAllocsIndependentOfTransactions(t *testing.T) {
	var few []Transaction
	for i := 0; i < 10; i++ {
		few = append(few, flowTx(byte(i%3), uint16(1024+i), 1, 80))
	}
	var many []Transaction
	for i := 0; i < 500; i++ {
		many = append(many, few...)
	}
	var rules []Rule
	allocsFew := testing.AllocsPerRun(5, func() { rules = Mine(few, 0.2) })
	nFew := len(rules)
	allocsMany := testing.AllocsPerRun(5, func() { rules = Mine(many, 0.2) })
	if len(rules) != nFew || nFew == 0 {
		t.Fatalf("mined %d rules from 10 flows, %d from the same flows x500", nFew, len(rules))
	}
	if allocsMany != allocsFew {
		t.Errorf("Mine allocated %v objects over %d transactions, %v over %d: allocation must not follow the transaction count",
			allocsMany, len(many), allocsFew, len(few))
	}
}

func TestMineDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var txs []Transaction
	for i := 0; i < 50; i++ {
		txs = append(txs, flowTx(byte(rng.Intn(3)), uint16(80+rng.Intn(2)), byte(rng.Intn(3)), 80))
	}
	a := Mine(txs, 0.15)
	b := Mine(txs, 0.15)
	if len(a) != len(b) {
		t.Fatal("nondeterministic rule count")
	}
	for i := range a {
		if a[i].String() != b[i].String() || a[i].Count != b[i].Count {
			t.Fatal("nondeterministic rule order")
		}
	}
}
