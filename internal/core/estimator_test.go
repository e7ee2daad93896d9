package core

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mawilab/internal/graphx"
	"mawilab/internal/mawigen"
	"mawilab/internal/simgraph"
	"mawilab/internal/trace"
)

// estimate is the tests' shim over the index-taking EstimateContext — the
// one estimation entry point since the deprecated trace-taking Estimate
// wrapper was retired: build the trace's canonical index, estimate against
// it sequentially.
func estimate(tr *trace.Trace, alarms []Alarm, cfg EstimatorConfig) (*Result, error) {
	return EstimateContext(context.Background(), trace.NewIndex(tr), alarms, cfg, 1)
}

// twoEventTrace builds a trace with two disjoint anomalies plus background:
// a port scan from scanner and a ping flood from pinger, with some unrelated
// web traffic.
func twoEventTrace() *trace.Trace {
	tr := &trace.Trace{Name: "two-events"}
	scanner := trace.MakeIPv4(10, 9, 9, 9)
	pinger := trace.MakeIPv4(10, 8, 8, 8)
	victim := trace.MakeIPv4(10, 0, 1, 1)
	ts := int64(0)
	add := func(p trace.Packet) {
		p.TS = ts
		ts += 1000
		tr.Append(p)
	}
	// Scan: scanner → many hosts on port 445.
	for h := byte(1); h <= 40; h++ {
		add(trace.Packet{Src: scanner, Dst: trace.MakeIPv4(10, 0, 2, h), SrcPort: 1024, DstPort: 445, Proto: trace.TCP, Flags: trace.SYN, Len: 40})
	}
	// Ping flood: pinger → victim.
	for i := 0; i < 40; i++ {
		add(trace.Packet{Src: pinger, Dst: victim, SrcPort: 8, DstPort: 0, Proto: trace.ICMP, Len: 64})
	}
	// Background web.
	for h := byte(1); h <= 20; h++ {
		add(trace.Packet{Src: trace.MakeIPv4(10, 1, 0, h), Dst: trace.MakeIPv4(10, 0, 3, 1), SrcPort: uint16(2000 + int(h)), DstPort: 80, Proto: trace.TCP, Flags: trace.ACK, Len: 500})
	}
	return tr
}

// scanAlarm reports the scanner host; pingAlarm the ping flood; variations
// come from different "configs".
func scanAlarm(det string, cfg int) Alarm {
	return Alarm{Detector: det, Config: cfg, Filters: []trace.Filter{
		trace.NewFilter().WithSrc(trace.MakeIPv4(10, 9, 9, 9)),
	}}
}

func pingAlarm(det string, cfg int) Alarm {
	return Alarm{Detector: det, Config: cfg, Filters: []trace.Filter{
		trace.NewFilter().WithSrc(trace.MakeIPv4(10, 8, 8, 8)).WithProto(trace.ICMP),
	}}
}

func TestEstimateGroupsSameTrafficAcrossDetectors(t *testing.T) {
	tr := twoEventTrace()
	alarms := []Alarm{
		scanAlarm("hough", 0),
		scanAlarm("gamma", 0),
		pingAlarm("kl", 0),
		pingAlarm("gamma", 1),
	}
	res, err := estimate(tr, alarms, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 2 {
		t.Fatalf("communities = %d, want 2 (scan group + ping group): %+v", len(res.Communities), res.Communities)
	}
	byAlarm := make(map[int]int) // alarm → community
	for _, c := range res.Communities {
		for _, ai := range c.Alarms {
			byAlarm[ai] = c.ID
		}
	}
	if byAlarm[0] != byAlarm[1] {
		t.Error("two scan alarms should share a community")
	}
	if byAlarm[2] != byAlarm[3] {
		t.Error("two ping alarms should share a community")
	}
	if byAlarm[0] == byAlarm[2] {
		t.Error("scan and ping alarms must not merge")
	}
}

func TestEstimateSimpsonContainment(t *testing.T) {
	// A host alarm containing a flow alarm: Simpson weight must be 1.
	tr := twoEventTrace()
	host := scanAlarm("a", 0) // all 40 scan flows
	oneDst := Alarm{Detector: "b", Config: 0, Filters: []trace.Filter{
		trace.NewFilter().WithSrc(trace.MakeIPv4(10, 9, 9, 9)).WithDst(trace.MakeIPv4(10, 0, 2, 5)),
	}}
	res, err := estimate(tr, []Alarm{host, oneDst}, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := res.Graph.Weight(0, 1)
	if w != 1 {
		t.Errorf("Simpson(host ⊃ flow) = %f, want 1", w)
	}
	if len(res.Communities) != 1 {
		t.Errorf("contained alarms should form one community, got %d", len(res.Communities))
	}
}

func TestEstimateJaccardLowerThanSimpson(t *testing.T) {
	tr := twoEventTrace()
	host := scanAlarm("a", 0)
	oneDst := Alarm{Detector: "b", Config: 0, Filters: []trace.Filter{
		trace.NewFilter().WithSrc(trace.MakeIPv4(10, 9, 9, 9)).WithDst(trace.MakeIPv4(10, 0, 2, 5)),
	}}
	cfg := DefaultEstimatorConfig()
	cfg.Measure = simgraph.Jaccard
	cfg.MinSimilarity = 0
	res, err := estimate(tr, []Alarm{host, oneDst}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Graph.Weight(0, 1)
	if w <= 0 || w >= 0.5 {
		t.Errorf("Jaccard(1 of 40 flows) = %f, want small positive", w)
	}
}

func TestEstimateConstantMeasure(t *testing.T) {
	tr := twoEventTrace()
	cfg := DefaultEstimatorConfig()
	cfg.Measure = simgraph.Constant
	res, err := estimate(tr, []Alarm{scanAlarm("a", 0), scanAlarm("b", 0)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Graph.Weight(0, 1); w != 1 {
		t.Errorf("constant weight = %f, want 1", w)
	}
}

func TestEstimateMinSimilarityDiscriminates(t *testing.T) {
	tr := twoEventTrace()
	host := scanAlarm("a", 0)
	oneDst := Alarm{Detector: "b", Config: 0, Filters: []trace.Filter{
		trace.NewFilter().WithSrc(trace.MakeIPv4(10, 9, 9, 9)).WithDst(trace.MakeIPv4(10, 0, 2, 5)),
	}}
	cfg := DefaultEstimatorConfig()
	cfg.Measure = simgraph.Jaccard // 1/40 = 0.025
	cfg.MinSimilarity = 0.1
	res, err := estimate(tr, []Alarm{host, oneDst}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.EdgeCount() != 0 {
		t.Error("weak edge should be discarded by MinSimilarity")
	}
	if singleCommunities(res) != 2 {
		t.Errorf("single communities = %d, want 2", singleCommunities(res))
	}
}

func TestEstimateComponentsAblation(t *testing.T) {
	tr := twoEventTrace()
	cfg := DefaultEstimatorConfig()
	cfg.Algo = ConnectedComponents
	alarms := []Alarm{scanAlarm("a", 0), scanAlarm("b", 0), pingAlarm("c", 0)}
	res, err := estimate(tr, alarms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 2 {
		t.Errorf("components = %d, want 2", len(res.Communities))
	}
}

func TestEstimateBadConfig(t *testing.T) {
	tr := twoEventTrace()
	cfg := DefaultEstimatorConfig()
	cfg.MinSimilarity = 2
	if _, err := estimate(tr, nil, cfg); err == nil {
		t.Error("invalid MinSimilarity accepted")
	}
	cfg = DefaultEstimatorConfig()
	cfg.Measure = simgraph.Measure(99)
	if _, err := estimate(tr, []Alarm{scanAlarm("a", 0), scanAlarm("b", 0)}, cfg); err == nil {
		t.Error("unknown measure accepted")
	}
	cfg = DefaultEstimatorConfig()
	cfg.Algo = CommunityAlgo(99)
	if _, err := estimate(tr, []Alarm{scanAlarm("a", 0)}, cfg); err == nil {
		t.Error("unknown algo accepted")
	}
	// An out-of-range granularity used to be labeled silently as biflow.
	cfg = DefaultEstimatorConfig()
	cfg.Granularity = trace.Granularity(7)
	if _, err := estimate(tr, []Alarm{scanAlarm("a", 0)}, cfg); err == nil || !strings.Contains(err.Error(), "7") {
		t.Errorf("granularity 7: err = %v, want an error naming the value", err)
	}
}

func TestEstimateEmptyAlarms(t *testing.T) {
	tr := twoEventTrace()
	res, err := estimate(tr, nil, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 0 {
		t.Errorf("no alarms should yield no communities, got %d", len(res.Communities))
	}
}

func TestEstimateNoTrafficAlarmIsSingle(t *testing.T) {
	tr := twoEventTrace()
	ghost := Alarm{Detector: "x", Filters: []trace.Filter{
		trace.NewFilter().WithSrc(trace.MakeIPv4(99, 0, 0, 1)),
	}}
	res, err := estimate(tr, []Alarm{ghost, scanAlarm("a", 0)}, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 2 || singleCommunities(res) != 2 {
		t.Errorf("ghost alarm should be its own single community: %d communities", len(res.Communities))
	}
}

func TestDetectorsIn(t *testing.T) {
	tr := twoEventTrace()
	alarms := []Alarm{scanAlarm("hough", 0), scanAlarm("hough", 1), scanAlarm("gamma", 0)}
	res, err := estimate(tr, alarms, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 1 {
		t.Fatalf("want one community, got %d", len(res.Communities))
	}
	dets := res.DetectorsIn(&res.Communities[0])
	if len(dets) != 2 {
		t.Errorf("detectors = %v, want 2 distinct", dets)
	}
}

func TestMeasureString(t *testing.T) {
	if simgraph.Simpson.String() != "simpson" || simgraph.Jaccard.String() != "jaccard" || simgraph.Constant.String() != "constant" {
		t.Error("measure names wrong")
	}
	if simgraph.Measure(9).String() != "measure(9)" {
		t.Errorf("unknown measure renders %q", simgraph.Measure(9).String())
	}
}

func TestCommunityAlgoString(t *testing.T) {
	if Louvain.String() != "louvain" || ConnectedComponents.String() != "components" {
		t.Error("algorithm names wrong")
	}
	if CommunityAlgo(9).String() != "algo(9)" {
		t.Errorf("unknown algorithm renders %q", CommunityAlgo(9).String())
	}
}

// TestEstimateMinSimilarityBoundaryKept: an edge whose weight lands exactly
// on MinSimilarity is kept — the config documents "discards edges *below*
// this weight". Simpson(host ⊃ 1-dst flow alarm) = 1/1 = 1 here, so a
// threshold of exactly 1 must still connect the pair.
func TestEstimateMinSimilarityBoundaryKept(t *testing.T) {
	tr := twoEventTrace()
	host := scanAlarm("a", 0)
	oneDst := Alarm{Detector: "b", Config: 0, Filters: []trace.Filter{
		trace.NewFilter().WithSrc(trace.MakeIPv4(10, 9, 9, 9)).WithDst(trace.MakeIPv4(10, 0, 2, 5)),
	}}
	cfg := DefaultEstimatorConfig()
	cfg.MinSimilarity = 1
	res, err := estimate(tr, []Alarm{host, oneDst}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.EdgeCount() != 1 || res.Graph.Weight(0, 1) != 1 {
		t.Errorf("edge at w == MinSimilarity == 1 dropped (weight %v)", res.Graph.Weight(0, 1))
	}
	if len(res.Communities) != 1 {
		t.Errorf("contained alarms should form one community, got %d", len(res.Communities))
	}
}

// singleCommunities counts the size-1 communities, the estimator's quality
// metric in Fig. 3a.
func singleCommunities(res *Result) int {
	n := 0
	for i := range res.Communities {
		if res.Communities[i].Size() == 1 {
			n++
		}
	}
	return n
}

// TestSingleCommunitiesEmptyResult: no alarms → no communities, none single.
func TestSingleCommunitiesEmptyResult(t *testing.T) {
	res, err := estimate(twoEventTrace(), nil, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if singleCommunities(res) != 0 {
		t.Errorf("single communities on empty result = %d, want 0", singleCommunities(res))
	}
}

// TestSingleCommunitiesSingleton: one alarm is exactly one size-1 community.
func TestSingleCommunitiesSingleton(t *testing.T) {
	res, err := estimate(twoEventTrace(), []Alarm{scanAlarm("a", 0)}, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 1 || singleCommunities(res) != 1 {
		t.Errorf("singleton alarm: %d communities, %d single — want 1/1",
			len(res.Communities), singleCommunities(res))
	}
	if got := res.Communities[0].Size(); got != 1 {
		t.Errorf("community size = %d, want 1", got)
	}
}

// TestDetectorsInSingleCommunity: a size-1 community reports exactly its one
// detector; an empty community reports none.
func TestDetectorsInSingleCommunity(t *testing.T) {
	res, err := estimate(twoEventTrace(), []Alarm{scanAlarm("hough", 0)}, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	dets := res.DetectorsIn(&res.Communities[0])
	if len(dets) != 1 || dets[0] != "hough" {
		t.Errorf("DetectorsIn(singleton) = %v, want [hough]", dets)
	}
	if dets := res.DetectorsIn(&Community{}); len(dets) != 0 {
		t.Errorf("DetectorsIn(empty community) = %v, want none", dets)
	}
}

// exactReferenceGraph is the similarity graph computed with none of the
// production machinery: every alarm's traffic is found by matching every
// packet of the trace against its filters and keyed in a Go map by the exact
// unit — the packet index, the packet's FlowKey, or that key's Canonical()
// form — and every pair of alarms is intersected directly, in pair order.
func exactReferenceGraph(ix *trace.Index, alarms []Alarm, cfg EstimatorConfig) *graphx.Graph {
	units := make([]map[any]struct{}, len(alarms))
	for i := range alarms {
		units[i] = make(map[any]struct{})
		for pi := 0; pi < ix.Len(); pi++ {
			p := ix.PacketAt(pi)
			for _, f := range alarms[i].Filters {
				if !f.Match(&p) {
					continue
				}
				switch cfg.Granularity {
				case trace.GranPacket:
					units[i][pi] = struct{}{}
				case trace.GranUniFlow:
					units[i][p.Flow()] = struct{}{}
				case trace.GranBiFlow:
					units[i][p.Flow().Canonical()] = struct{}{}
				}
			}
		}
	}
	g := graphx.New(len(alarms))
	for a := range units {
		for b := a + 1; b < len(units); b++ {
			n := 0
			for u := range units[a] {
				if _, ok := units[b][u]; ok {
					n++
				}
			}
			if n == 0 {
				continue
			}
			var w float64
			switch cfg.Measure {
			case simgraph.Simpson:
				w = float64(n) / float64(min(len(units[a]), len(units[b])))
			case simgraph.Jaccard:
				w = float64(n) / float64(len(units[a])+len(units[b])-n)
			case simgraph.Constant:
				w = 1
			}
			if w >= cfg.MinSimilarity && w > 0 {
				g.AddEdge(a, b, w)
			}
		}
	}
	return g
}

// TestEstimateMatchesExactReference pins the id-slice representation at
// every granularity and measure (the pipeline golden only exercises uniflow
// Simpson): on a generated archive day, alarmed by its ground-truth events
// plus random filters, and on the random filter trace, the estimator's graph
// — edges, weights, float-accumulated total weight — equals the map-keyed
// quadratic reference at workers 1 and 4.
func TestEstimateMatchesExactReference(t *testing.T) {
	arch := mawigen.NewArchive(7)
	arch.Duration = 20
	arch.BaseRate = 150
	day := arch.Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC))
	dayIx := trace.NewIndex(day.Trace)
	rng := rand.New(rand.NewSource(11))
	var dayAlarms []Alarm
	for _, ev := range day.Truth {
		dayAlarms = append(dayAlarms, Alarm{Detector: "truth", Filters: ev.Filters})
	}
	for len(dayAlarms) < 60 {
		dayAlarms = append(dayAlarms, Alarm{Detector: "rand", Filters: []trace.Filter{randomFilter(rng, dayIx)}})
	}
	randIx := trace.NewIndex(randomFilterTrace(31, 2000))
	var randAlarms []Alarm
	for i := 0; i < 60; i++ {
		a := Alarm{Detector: "rand", Filters: []trace.Filter{randomFilter(rng, randIx)}}
		if i%3 == 0 {
			a.Filters = append(a.Filters, randomFilter(rng, randIx))
		}
		randAlarms = append(randAlarms, a)
	}
	cases := []struct {
		name   string
		ix     *trace.Index
		alarms []Alarm
	}{{"day", dayIx, dayAlarms}, {"random", randIx, randAlarms}}
	for _, tc := range cases {
		for _, gran := range []trace.Granularity{trace.GranPacket, trace.GranUniFlow, trace.GranBiFlow} {
			for _, measure := range []simgraph.Measure{simgraph.Simpson, simgraph.Jaccard, simgraph.Constant} {
				cfg := EstimatorConfig{Granularity: gran, Measure: measure, MinSimilarity: 0.1, Algo: Louvain}
				want := exactReferenceGraph(tc.ix, tc.alarms, cfg)
				if want.EdgeCount() == 0 {
					t.Fatalf("%s %v %v: reference graph has no edges — the case tests nothing", tc.name, gran, measure)
				}
				for _, workers := range []int{1, 4} {
					res, err := EstimateContext(context.Background(), tc.ix, tc.alarms, cfg, workers)
					if err != nil {
						t.Fatalf("%s %v %v workers=%d: %v", tc.name, gran, measure, workers, err)
					}
					if !reflect.DeepEqual(res.Graph, want) {
						t.Errorf("%s %v %v workers=%d: graph differs from the exact reference (%d vs %d edges, total weight %v vs %v)",
							tc.name, gran, measure, workers, res.Graph.EdgeCount(), want.EdgeCount(), res.Graph.TotalWeight(), want.TotalWeight())
					}
				}
			}
		}
	}
}
