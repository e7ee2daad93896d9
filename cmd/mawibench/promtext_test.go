package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP mawilabd_uploads_total pcap uploads
# TYPE mawilabd_uploads_total counter
mawilabd_uploads_total 3
# TYPE mawilabd_stage_seconds histogram
mawilabd_stage_seconds_bucket{stage="detect",le="0.05"} 2
mawilabd_stage_seconds_bucket{stage="detect",le="+Inf"} 3
mawilabd_stage_seconds_sum{stage="detect"} 0.12
mawilabd_stage_seconds_count{stage="detect"} 3
mawilabd_queue_depth 0
`

const scrapeAfter = `mawilabd_uploads_total 7
mawilabd_uploads_rejected_total{reason="queue_full"} 2
mawilabd_stage_seconds_sum{stage="detect"} 0.32
mawilabd_stage_seconds_count{stage="detect"} 7

mawilabd_job_seconds_sum 1.5e+00
`

func TestParsePromAndDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 6 {
		t.Errorf("parsed %d series, want 6: %v", len(before), before)
	}
	if got := before[`mawilabd_stage_seconds_bucket{stage="detect",le="+Inf"}`]; got != 3 {
		t.Errorf("+Inf bucket = %v", got)
	}
	if got := after["mawilabd_job_seconds_sum"]; got != 1.5 {
		t.Errorf("exponent value = %v", got)
	}
	if got := delta(before, after, "mawilabd_uploads_total"); got != 4 {
		t.Errorf("counter delta = %v", got)
	}
	// A labelled child that first appears in the second scrape starts from 0.
	if got := delta(before, after, `mawilabd_uploads_rejected_total{reason="queue_full"}`); got != 2 {
		t.Errorf("new series delta = %v", got)
	}
	sum := delta(before, after, `mawilabd_stage_seconds_sum{stage="detect"}`)
	count := delta(before, after, `mawilabd_stage_seconds_count{stage="detect"}`)
	if !near(sum/count, 0.05) {
		t.Errorf("mean of the new observations = %v, want 0.05", sum/count)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue\n", "name notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
