package core

import (
	"context"
	"fmt"

	"mawilab/internal/graphx"
	"mawilab/internal/parallel"
	"mawilab/internal/simgraph"
	"mawilab/internal/trace"
)

// CommunityAlgo selects the community-mining algorithm run on the
// similarity graph.
type CommunityAlgo uint8

// Community mining algorithms.
const (
	// Louvain is the modularity method the paper uses: it can isolate
	// small locally-dense groups inside sparse graphs.
	Louvain CommunityAlgo = iota
	// ConnectedComponents is the ablation baseline: every connected
	// component is one community.
	ConnectedComponents
)

// String names the algorithm.
func (a CommunityAlgo) String() string {
	switch a {
	case Louvain:
		return "louvain"
	case ConnectedComponents:
		return "components"
	default:
		return fmt.Sprintf("algo(%d)", uint8(a))
	}
}

// EstimatorConfig parameterizes the similarity estimator.
type EstimatorConfig struct {
	// Granularity of traffic comparison; the paper retains uniflow.
	Granularity trace.Granularity
	// Measure of edge weight (§2.1.2); the paper retains Simpson.
	Measure simgraph.Measure
	// MinSimilarity discards edges below this weight, discriminating
	// alarms with an irrelevant amount of traffic in common: an edge is
	// kept when its weight is >= MinSimilarity and > 0. Zero keeps every
	// intersecting pair.
	MinSimilarity float64
	// Algo selects the community mining algorithm.
	Algo CommunityAlgo
}

// DefaultEstimatorConfig returns the paper's retained configuration:
// unidirectional flows, Simpson index, Louvain.
func DefaultEstimatorConfig() EstimatorConfig {
	return EstimatorConfig{
		Granularity:   trace.GranUniFlow,
		Measure:       simgraph.Simpson,
		MinSimilarity: 0.1,
		Algo:          Louvain,
	}
}

// Community is a group of similar alarms found in the similarity graph.
type Community struct {
	// ID is the dense community index.
	ID int
	// Alarms are indices into Result.Alarms, ascending.
	Alarms []int
	// Traffic is the union of the members' traffic.
	Traffic CommunityTraffic
}

// Size returns the number of alarms in the community; size-1 communities
// are the paper's "single communities".
func (c *Community) Size() int { return len(c.Alarms) }

// Result is the output of the similarity estimator: the graph, the alarm
// traffic sets, and the mined communities.
type Result struct {
	Alarms      []Alarm
	Sets        []*TrafficSet
	Graph       *graphx.Graph
	Communities []Community

	extractor *Extractor
	cfg       EstimatorConfig
}

// Index exposes the shared trace index the estimate resolved against, so
// downstream stages (labeling, heuristics) reuse it instead of rebuilding.
func (r *Result) Index() *trace.Index { return r.extractor.Index() }

// EstimateContext is the estimation entry point over one index: it runs the
// similarity estimator (§2.1) over the reported alarms — extract each alarm's
// traffic, weight alarm pairs by traffic similarity, and cluster the
// resulting graph into communities — resolving all traffic against the
// shared trace.Index the caller already holds (a sealed segment's, or
// trace.SealTrace's canonical whole-trace index; the same index the detector
// fan-out consumed, built once per trace). The index is its own one-segment
// window: SegmentSets resolves the alarms against it and WindowSets, with the
// identity remap, derives their traffic units, then EstimateSets does the
// rest. Traffic is identified by that index's own exact ids throughout. The
// per-alarm traffic extraction, the rows of the similarity graph
// (internal/simgraph) and the per-community traffic unions fan out across up
// to `workers` goroutines (<= 1 runs inline); Louvain community mining is
// sequential. The result is identical at every worker count.
func EstimateContext(ctx context.Context, ix *trace.Index, alarms []Alarm, cfg EstimatorConfig, workers int) (*Result, error) {
	segSets, err := SegmentSets(ctx, ix, alarms, cfg.Granularity, workers)
	if err != nil {
		return nil, err
	}
	sets, err := WindowSets(ctx, ix, cfg.Granularity, []Part{{Sets: segSets}}, workers)
	if err != nil {
		return nil, err
	}
	return EstimateSets(ctx, ix, alarms, sets, cfg, workers)
}

// EstimateSets is the estimator past extraction: sets[i] is alarms[i]'s
// traffic over ix at cfg.Granularity, as WindowSets builds it — for a
// streamed window, from traffic resolved once per segment. It weighs the
// alarm pairs, mines the communities and unions each community's traffic,
// exactly as EstimateContext does after extracting.
func EstimateSets(ctx context.Context, ix *trace.Index, alarms []Alarm, sets []*TrafficSet, cfg EstimatorConfig, workers int) (*Result, error) {
	if cfg.MinSimilarity < 0 || cfg.MinSimilarity > 1 {
		return nil, fmt.Errorf("core: MinSimilarity %f out of [0,1]", cfg.MinSimilarity)
	}
	switch cfg.Granularity {
	case trace.GranPacket, trace.GranUniFlow, trace.GranBiFlow:
	default:
		return nil, fmt.Errorf("core: unknown granularity %d", cfg.Granularity)
	}
	ext := NewExtractor(ix, cfg.Granularity)
	ids := make([]simgraph.Set, len(sets))
	for i, ts := range sets {
		ids[i] = ts.IDs
	}

	g, err := simgraph.Build(ctx, ids, simgraph.Config{
		Measure:       cfg.Measure,
		MinSimilarity: cfg.MinSimilarity,
		Workers:       workers,
	})
	if err != nil {
		return nil, err
	}

	var assignment []int
	switch cfg.Algo {
	case Louvain:
		assignment, err = g.LouvainContext(ctx, 1) // the int is ignored; see LouvainContext
		if err != nil {
			return nil, err
		}
	case ConnectedComponents:
		assignment = g.Components()
	default:
		return nil, fmt.Errorf("core: unknown community algorithm %d", cfg.Algo)
	}

	members := graphx.Members(assignment)
	communities := make([]Community, len(members))
	if err := parallel.ForEach(ctx, len(members), workers, func(_ context.Context, id int) error {
		alarmIdx := members[id]
		memberSets := make([]*TrafficSet, len(alarmIdx))
		for i, ai := range alarmIdx {
			memberSets[i] = sets[ai]
		}
		communities[id] = Community{
			ID:      id,
			Alarms:  alarmIdx,
			Traffic: ext.Union(memberSets),
		}
		return nil
	}); err != nil {
		return nil, err
	}

	return &Result{
		Alarms:      alarms,
		Sets:        sets,
		Graph:       g,
		Communities: communities,
		extractor:   ext,
		cfg:         cfg,
	}, nil
}

// DetectorsIn returns the distinct detectors with at least one alarm in
// community c.
func (r *Result) DetectorsIn(c *Community) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, ai := range c.Alarms {
		d := r.Alarms[ai].Detector
		if _, ok := seen[d]; !ok {
			seen[d] = struct{}{}
			out = append(out, d)
		}
	}
	return out
}
