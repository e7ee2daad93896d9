package mawilab

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/detectors/klhist"
	"mawilab/internal/heuristics"
	"mawilab/internal/trace"
)

// The labeling tail as it stood before a transaction became a value, kept as
// the reference for core.BuildReportsContext: the community is itemized once
// for mining, every packet is re-itemized from its row to find the
// rule-covered traffic, and the rule support is a third, separate walk.

func refCommunityTransactions(ix *trace.Index, gran trace.Granularity, c *core.Community) []apriori.Transaction {
	if gran == trace.GranPacket {
		txs := make([]apriori.Transaction, len(c.Traffic.Packets))
		for i, pi := range c.Traffic.Packets {
			p := ix.PacketAt(pi)
			txs[i] = apriori.FromFlow(p.Flow())
		}
		return txs
	}
	txs := make([]apriori.Transaction, len(c.Traffic.Flows))
	for i, k := range c.Traffic.Flows {
		txs[i] = apriori.FromFlow(k)
	}
	return txs
}

func refRuleCoveredPackets(ix *trace.Index, packets []int, rules []apriori.Rule) []int {
	if len(rules) == 0 {
		return packets
	}
	var out []int
	for _, pi := range packets {
		p := ix.PacketAt(pi)
		tx := apriori.FromFlow(p.Flow())
		for _, rule := range rules {
			if rule.Matches(tx) {
				out = append(out, pi)
				break
			}
		}
	}
	if len(out) == 0 {
		return packets
	}
	return out
}

func refCoverage(txs []apriori.Transaction, rules []apriori.Rule) float64 {
	if len(txs) == 0 {
		return 0
	}
	covered := 0
	for _, tx := range txs {
		for _, r := range rules {
			if r.Matches(tx) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(txs))
}

func refBuildReports(r *core.Result, gran trace.Granularity, decisions []core.Decision, support float64) []core.CommunityReport {
	ix := r.Index()
	reports := make([]core.CommunityReport, len(r.Communities))
	for ci := range r.Communities {
		c := &r.Communities[ci]
		txs := refCommunityTransactions(ix, gran, c)
		rules := apriori.Maximal(apriori.Mine(txs, support))
		cls, cat := heuristics.ClassifyPackets(ix, refRuleCoveredPackets(ix, c.Traffic.Packets, rules))
		reports[ci] = core.CommunityReport{
			Community:   ci,
			Label:       core.AssignLabel(decisions[ci]),
			Decision:    decisions[ci],
			Rules:       rules,
			RuleDegree:  apriori.MeanDegree(rules),
			RuleSupport: refCoverage(txs, rules),
			Class:       cls,
			Category:    cat,
			Packets:     len(c.Traffic.Packets),
			Flows:       len(c.Traffic.Flows),
		}
	}
	return reports
}

// TestBuildReportsMatchesReference is the differential of the one-pass tail:
// on three archive days, at every traffic granularity and at workers 1 and
// 4, every community report — rules, rule degree and support by their float
// bits, Table 1 class and category, counts — equals the reference's.
func TestBuildReportsMatchesReference(t *testing.T) {
	arch := NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	dates := []time.Time{Date(2004, 5, 10), Date(2005, 3, 7), Date(2006, 10, 16)}
	for _, date := range dates {
		tr := arch.Day(date).Trace
		for _, gran := range []trace.Granularity{trace.GranPacket, trace.GranUniFlow, trace.GranBiFlow} {
			p := NewPipeline()
			p.Estimator.Granularity = gran
			l, err := p.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(l.Reports) == 0 {
				t.Fatalf("%s %v: no communities to label", date.Format(time.DateOnly), gran)
			}
			want := refBuildReports(l.Result, p.Estimator.Granularity, l.Decisions, p.RuleSupport)
			for _, workers := range []int{1, 4} {
				got, err := core.BuildReportsContext(context.Background(), l.Result, l.Decisions, core.ReportOptions{RuleSupport: p.RuleSupport}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %v workers=%d: %d reports, reference %d", date.Format(time.DateOnly), gran, workers, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) ||
						math.Float64bits(got[i].RuleSupport) != math.Float64bits(want[i].RuleSupport) ||
						math.Float64bits(got[i].RuleDegree) != math.Float64bits(want[i].RuleDegree) {
						t.Errorf("%s %v workers=%d: community %d\n got %+v\nwant %+v", date.Format(time.DateOnly), gran, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestLabelingTailAllocations pins what the value transaction removed: with
// heap transactions klhist.Prepare allocated 4 189 objects over the bench
// day and BuildReportsContext about 11 700, most of them one per packet or
// flow. The bounds sit well under those and over today's counts (114 and,
// with Table 1's port map gone too, 913), so only per-transaction allocation
// coming back trips them.
func TestLabelingTailAllocations(t *testing.T) {
	ix := benchIndex(t)
	kl := klhist.New()
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := kl.Prepare(ix); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 400 {
		t.Errorf("klhist.Prepare allocated %v objects over the bench day, want < 400", allocs)
	}

	l, err := NewPipeline().Run(benchTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.BuildReportsContext(context.Background(), l.Result, l.Decisions, core.DefaultReportOptions(), 1); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 1200 {
		t.Errorf("BuildReportsContext allocated %v objects over the bench day (%d communities), want < 1200", allocs, len(l.Reports))
	}
}
