package serve

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	r.writeExposition(&buf)
	return buf.String()
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	r.GaugeFunc("depth", "queue depth", func() int64 { return 2 })
	r.GaugeFunc("live", "live value", func() int64 { return 7 })
	v := r.CounterVec("by_reason_total", "by reason", "reason")
	v.With("b").Inc()
	v.With("a").Inc()
	v.With("a").Inc()

	out := render(t, r)
	for _, want := range []string{
		"# HELP jobs_total jobs\n# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE depth gauge\ndepth 2\n",
		"live 7\n",
		"by_reason_total{reason=\"a\"} 2\nby_reason_total{reason=\"b\"} 1\n", // sorted by label value
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05) // first bucket
	h.Observe(0.5)  // second bucket
	h.Observe(5)    // overflow -> +Inf only
	out := render(t, r)
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if diff := h.Mean() - 5.55/3; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Mean = %g", h.Mean())
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("stage_seconds", "per stage", "stage", []float64{1})
	v.With("detect").Observe(0.5)
	v.With("ingest").Observe(2)
	out := render(t, r)
	for _, want := range []string{
		`stage_seconds_bucket{stage="detect",le="1"} 1`,
		`stage_seconds_bucket{stage="detect",le="+Inf"} 1`,
		`stage_seconds_bucket{stage="ingest",le="1"} 0`,
		`stage_seconds_bucket{stage="ingest",le="+Inf"} 1`,
		`stage_seconds_sum{stage="ingest"} 2`,
		`stage_seconds_count{stage="detect"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestHistogramConcurrent exercises the lock-free Observe under the race
// detector (make race covers ./internal/...).
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d", h.Count())
	}
	if diff := h.Sum() - 80; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sum = %g", h.Sum())
	}
}
