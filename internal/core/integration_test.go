package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mawilab/internal/trace"
)

// TestFig1GranularityStory verifies the paper's Fig. 1 claim end to end:
// with packet granularity, Alarm1 is disconnected from Alarm2/Alarm3 (no
// shared packets) and falls into its own community; with flow granularity,
// all three alarms report the same flow and merge into one community.
func TestFig1GranularityStory(t *testing.T) {
	tr, alarms := fig1Trace()

	pktCfg := DefaultEstimatorConfig()
	pktCfg.Granularity = trace.GranPacket
	pktRes, err := estimate(tr, alarms, pktCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pktRes.Communities) != 2 {
		t.Errorf("packet granularity: %d communities, want 2 (A1 alone, A2+A3 together)", len(pktRes.Communities))
	}
	if singleCommunities(pktRes) != 1 {
		t.Errorf("packet granularity: %d single communities, want 1", singleCommunities(pktRes))
	}

	for _, g := range []trace.Granularity{trace.GranUniFlow, trace.GranBiFlow} {
		cfg := DefaultEstimatorConfig()
		cfg.Granularity = g
		res, err := estimate(tr, alarms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Communities) != 1 {
			t.Errorf("%v: %d communities, want 1 (all alarms share the flow)", g, len(res.Communities))
		}
	}
}

// TestEstimatePartitionInvariant checks that every alarm lands in exactly
// one community, for random alarm sets.
func TestEstimatePartitionInvariant(t *testing.T) {
	tr := twoEventTrace()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		alarms := make([]Alarm, n)
		for i := range alarms {
			var a Alarm
			switch rng.Intn(3) {
			case 0:
				a = scanAlarm("d"+string(rune('a'+rng.Intn(3))), rng.Intn(3))
			case 1:
				a = pingAlarm("d"+string(rune('a'+rng.Intn(3))), rng.Intn(3))
			default:
				a = Alarm{Detector: "x", Config: rng.Intn(3), Filters: []trace.Filter{
					trace.NewFilter().WithDstPort(uint16(rng.Intn(1000))),
				}}
			}
			alarms[i] = a
		}
		res, err := estimate(tr, alarms, DefaultEstimatorConfig())
		if err != nil {
			return false
		}
		seen := make(map[int]int)
		for _, c := range res.Communities {
			for _, ai := range c.Alarms {
				seen[ai]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCommunityTrafficSupersetInvariant checks that a community's flow set
// contains every member alarm's flows.
func TestCommunityTrafficSupersetInvariant(t *testing.T) {
	tr := twoEventTrace()
	alarms := []Alarm{
		scanAlarm("a", 0), scanAlarm("b", 1), pingAlarm("a", 2),
		{Detector: "c", Config: 0, Filters: []trace.Filter{trace.NewFilter().WithDstPort(80)}},
	}
	res, err := estimate(tr, alarms, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	ix := res.Index()
	for _, c := range res.Communities {
		flows := make(map[trace.FlowKey]bool, len(c.Traffic.Flows))
		for _, k := range c.Traffic.Flows {
			flows[k] = true
		}
		for _, ai := range c.Alarms {
			for _, fi := range res.Sets[ai].FlowRefs {
				if !flows[ix.Flow(fi)] {
					t.Fatalf("community %d missing flow of alarm %d", c.ID, ai)
				}
			}
		}
	}
}

// TestStrategiesAgreeOnUnanimity: a community voted by every configuration
// must be accepted by all strategies; one voted by nothing but a single
// config must be rejected by average and minimum.
func TestStrategiesAgreeOnUnanimity(t *testing.T) {
	tr := twoEventTrace()
	var alarms []Alarm
	for _, det := range []string{"a", "b", "c", "d"} {
		for cfg := 0; cfg < 3; cfg++ {
			alarms = append(alarms, scanAlarm(det, cfg))
		}
	}
	alarms = append(alarms, pingAlarm("a", 0)) // isolated single vote
	res, err := estimate(tr, alarms, DefaultEstimatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]int{"a": 3, "b": 3, "c": 3, "d": 3}
	conf := res.Confidences(totals)

	var unanimous, isolated int = -1, -1
	for i, c := range res.Communities {
		if c.Size() == 12 {
			unanimous = i
		}
		if c.Size() == 1 {
			isolated = i
		}
	}
	if unanimous == -1 || isolated == -1 {
		t.Fatalf("expected unanimous and isolated communities: %+v", res.Communities)
	}
	for _, s := range []Strategy{NewAverage(), NewMinimum(), NewMaximum(), NewSCANN()} {
		dec, err := s.Classify(res, conf)
		if err != nil {
			t.Fatal(err)
		}
		if !dec[unanimous].Accepted {
			t.Errorf("%s rejected a unanimously voted community", s.Name())
		}
		if s.Name() == "average" || s.Name() == "minimum" {
			if dec[isolated].Accepted {
				t.Errorf("%s accepted a single-vote community", s.Name())
			}
		}
	}
}

// TestLouvainNeverWorseThanComponentsOnModularity: the estimator's Louvain
// partition must score at least the connected-components partition.
func TestLouvainNeverWorseThanComponentsOnModularity(t *testing.T) {
	tr := twoEventTrace()
	var alarms []Alarm
	for _, det := range []string{"a", "b", "c"} {
		for cfg := 0; cfg < 3; cfg++ {
			alarms = append(alarms, scanAlarm(det, cfg))
			alarms = append(alarms, pingAlarm(det, cfg))
		}
	}
	cfgL := DefaultEstimatorConfig()
	resL, err := estimate(tr, alarms, cfgL)
	if err != nil {
		t.Fatal(err)
	}
	cfgC := DefaultEstimatorConfig()
	cfgC.Algo = ConnectedComponents
	resC, err := estimate(tr, alarms, cfgC)
	if err != nil {
		t.Fatal(err)
	}
	assignmentOf := func(r *Result) []int {
		out := make([]int, len(r.Alarms))
		for _, c := range r.Communities {
			for _, ai := range c.Alarms {
				out[ai] = c.ID
			}
		}
		return out
	}
	qL := resL.Graph.Modularity(assignmentOf(resL))
	qC := resC.Graph.Modularity(assignmentOf(resC))
	if qL < qC-1e-9 {
		t.Errorf("Louvain Q=%f below components Q=%f", qL, qC)
	}
}
