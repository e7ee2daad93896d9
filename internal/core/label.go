package core

import (
	"context"
	"fmt"
	"slices"

	"mawilab/internal/apriori"
	"mawilab/internal/heuristics"
	"mawilab/internal/parallel"
	"mawilab/internal/trace"
)

// Label is the four-level taxonomy assigned to traffic in the published
// MAWILab database (§5).
type Label uint8

// Taxonomy labels, by increasing severity.
const (
	// Benign traffic was never reported by any detector.
	Benign Label = iota
	// Notice traffic was reported but clearly rejected by the combiner
	// (relative distance above the threshold).
	Notice
	// Suspicious traffic was rejected but lies close to the decision
	// threshold: probably anomalous but not clearly identified.
	Suspicious
	// Anomalous traffic was accepted by the combiner: any efficient
	// detector should identify it.
	Anomalous
)

// String names the label as in the MAWILab database.
func (l Label) String() string {
	switch l {
	case Anomalous:
		return "anomalous"
	case Suspicious:
		return "suspicious"
	case Notice:
		return "notice"
	default:
		return "benign"
	}
}

// SuspiciousThreshold is the relative-distance boundary between Suspicious
// and Notice for rejected communities (§5).
const SuspiciousThreshold = 0.5

// AssignLabel maps one combiner decision to the taxonomy.
func AssignLabel(d Decision) Label {
	if d.Accepted {
		return Anomalous
	}
	if d.RelDistance <= SuspiciousThreshold {
		return Suspicious
	}
	return Notice
}

// ReportOptions controls community labeling.
type ReportOptions struct {
	// RuleSupport is Apriori's minimum support as a fraction; the paper
	// fixes s = 20%.
	RuleSupport float64
}

// DefaultReportOptions returns the paper's labeling parameters.
func DefaultReportOptions() ReportOptions {
	return ReportOptions{RuleSupport: 0.2}
}

// CommunityReport is the final label record for one community: taxonomy
// label, concise association rules describing the traffic, rule-quality
// metrics, and the Table 1 heuristic classification used for evaluation.
type CommunityReport struct {
	Community   int
	Label       Label
	Decision    Decision
	Rules       []apriori.Rule
	RuleDegree  float64 // mean items per rule, [0,4]
	RuleSupport float64 // fraction of traffic covered by the rules, [0,1]
	Class       heuristics.Class
	Category    heuristics.Category
	Packets     int
	Flows       int
}

// String renders the report headline.
func (cr *CommunityReport) String() string {
	rule := "<no rule>"
	if len(cr.Rules) > 0 {
		rule = cr.Rules[0].String()
	}
	return fmt.Sprintf("community %d: %s (%s/%s) %s",
		cr.Community, cr.Label, cr.Class, cr.Category, rule)
}

// BuildReportsContext labels every community of r given combiner decisions:
// association rules are mined from the community traffic (modified Apriori
// with percentage support, §4.1.1), the rule metrics computed, and the
// Table 1 heuristics applied for the evaluation figures. The traffic is
// resolved through r's shared trace.Index — the same index the detectors
// and the estimator consumed.
//
// Communities are labeled independently (rule mining dominates the cost), so
// they fan out across up to `workers` goroutines (<= 1 runs inline). Each
// report is written into its community's slot, so the output is identical to
// the sequential path regardless of worker count.
func BuildReportsContext(ctx context.Context, r *Result, decisions []Decision, opts ReportOptions, workers int) ([]CommunityReport, error) {
	if len(decisions) != len(r.Communities) {
		return nil, fmt.Errorf("core: decisions (%d) != communities (%d)", len(decisions), len(r.Communities))
	}
	if !(opts.RuleSupport > 0 && opts.RuleSupport <= 1) {
		return nil, fmt.Errorf("core: rule support %f out of (0,1]", opts.RuleSupport)
	}
	ix := r.Index()
	byPacket := r.cfg.Granularity == trace.GranPacket
	reports := make([]CommunityReport, len(r.Communities))
	err := parallel.ForEach(ctx, len(r.Communities), workers, func(_ context.Context, ci int) error {
		c := &r.Communities[ci]
		// One transaction per flow at flow granularities, one per packet —
		// its flow's — at packet granularity: "the packets or flows
		// corresponding to each community" (§4.1.1).
		var txs []apriori.Transaction
		if byPacket {
			txs = make([]apriori.Transaction, len(c.Traffic.Packets))
			for i, pi := range c.Traffic.Packets {
				txs[i] = apriori.FromFlow(ix.Flow(int(ix.FlowIDOf(pi))))
			}
		} else {
			txs = make([]apriori.Transaction, len(c.Traffic.Flows))
			for i, k := range c.Traffic.Flows {
				txs[i] = apriori.FromFlow(k)
			}
		}
		rules := apriori.MaximalRules(txs, opts.RuleSupport)

		// One pass over the transactions against the rules yields both the
		// rule support and the traffic the heuristics inspect (§5 assigns
		// labels "to the traffic described by the community rules": a
		// community mixing a 445-scan with incidental neighbour flows is
		// still an SMB attack per its dominant rule). A matched flow covers
		// its whole packet run; Table 1 sums counts, so order is immaterial.
		matched := 0
		covered := make([]int, 0, len(c.Traffic.Packets))
		for i, tx := range txs {
			if !slices.ContainsFunc(rules, func(rule apriori.Rule) bool { return rule.Matches(tx) }) {
				continue
			}
			matched++
			if byPacket {
				covered = append(covered, c.Traffic.Packets[i])
				continue
			}
			for _, pi := range ix.FlowPackets(c.Traffic.FlowRefs[i]) {
				covered = append(covered, int(pi))
			}
		}
		ruleSupport := 0.0
		if matched > 0 {
			ruleSupport = float64(matched) / float64(len(txs))
		} else {
			covered = c.Traffic.Packets // no rule, no coverage: the whole community
		}
		cls, cat := heuristics.ClassifyPackets(ix, covered)
		reports[ci] = CommunityReport{
			Community:   ci,
			Label:       AssignLabel(decisions[ci]),
			Decision:    decisions[ci],
			Rules:       rules,
			RuleDegree:  apriori.MeanDegree(rules),
			RuleSupport: ruleSupport,
			Class:       cls,
			Category:    cat,
			Packets:     len(c.Traffic.Packets),
			Flows:       len(c.Traffic.Flows),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
