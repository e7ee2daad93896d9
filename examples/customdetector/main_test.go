package main

import (
	"math"
	"testing"

	"mawilab/internal/trace"
)

// TestEntropyAlarmsJoinTheGraph pins the point of the example: the entropy
// detector raises alarms on the chosen day, and they land in the similarity
// graph's communities beside the standard detectors' alarms.
func TestEntropyAlarmsJoinTheGraph(t *testing.T) {
	baseline, extended, err := label()
	if err != nil {
		t.Fatal(err)
	}
	raised := 0
	for _, a := range extended.Alarms {
		if a.Detector == "entropy" {
			raised++
		}
	}
	if raised == 0 || len(extended.Alarms) != len(baseline.Alarms)+raised {
		t.Fatalf("extended run has %d alarms, %d of them entropy; baseline %d", len(extended.Alarms), raised, len(baseline.Alarms))
	}
	if shared, solo := entropyCommunities(extended); shared+solo == 0 {
		t.Fatal("no community holds an entropy alarm")
	}
}

// TestEntropyRiseNamesTheTarget: the day's SYN flood on 10.0.0.35:80
// (43-52.3 s) comes from spoofed sources, so it raises the source entropy of
// the bins it covers, and every entropy alarm overlapping it names the
// flood's target, not whichever spoofed source happened to lead its bin.
func TestEntropyRiseNamesTheTarget(t *testing.T) {
	_, extended, err := label()
	if err != nil {
		t.Fatal(err)
	}
	target := trace.MakeIPv4(10, 0, 0, 35)
	overlapping := 0
	for _, a := range extended.Alarms {
		f := a.Filters[0]
		if a.Detector != "entropy" || f.To <= 43e6 || f.From >= 52_300_000 {
			continue
		}
		overlapping++
		if f.Src != nil || f.Dst == nil || *f.Dst != target {
			t.Errorf("entropy alarm over [%d,%d) µs names %v, want the target %v", f.From, f.To, f, target)
		}
	}
	if overlapping == 0 {
		t.Fatal("no entropy alarm overlaps the SYN flood")
	}
}

// TestEntropyBounds: uniform over 8 sources is 3 bits, one source 0 bits.
func TestEntropyBounds(t *testing.T) {
	uniform := map[trace.IPv4]int{}
	for k := trace.IPv4(0); k < 8; k++ {
		uniform[k] = 1
	}
	if e := sourceEntropy(uniform); math.Abs(e-3) > 1e-12 {
		t.Errorf("uniform-8 entropy = %v, want 3", e)
	}
	one := map[trace.IPv4]int{42: 100}
	if e, top := sourceEntropy(one), topAddress(one); e != 0 || top != 42 {
		t.Errorf("single source = (%v, %v), want (0, 42)", e, top)
	}
}

// TestTopSource: the heaviest source wins.
func TestTopSource(t *testing.T) {
	if top := topAddress(map[trace.IPv4]int{1: 5, 2: 10, 3: 1}); top != 2 {
		t.Errorf("top = %v, want 2", top)
	}
}

// TestTopSourceTies: the smaller address breaks a tie whatever the map's
// order.
func TestTopSourceTies(t *testing.T) {
	tied := map[trace.IPv4]int{}
	for k := trace.IPv4(50); k > 0; k-- {
		tied[k] = 1
	}
	for range 20 {
		if top := topAddress(tied); top != 1 {
			t.Fatalf("tie broke to %v, want the smallest address 1", top)
		}
	}
}
