package serve

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// parseExposition is a strict reader for the Prometheus text format 0.0.4
// subset the registry emits: HELP then TYPE for every family, samples
// grouped under their family, parseable values, no duplicate series.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]string{}
	helped := map[string]bool{}
	var family string
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			parts := strings.Fields(rest)
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			if !helped[parts[0]] {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", ln+1, parts[0])
			}
			if _, dup := typed[parts[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			typed[parts[0]] = parts[1]
			family = parts[0]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment: %q", ln+1, line)
		case strings.TrimSpace(line) == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: unparseable sample: %q", ln+1, line)
			}
			name := m[1]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if base != family {
				t.Fatalf("line %d: sample %s outside its family block (current family %s)", ln+1, name, family)
			}
			if typed[family] != "histogram" && name != family {
				t.Fatalf("line %d: %s sample %s carries a histogram suffix", ln+1, typed[family], name)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("line %d: unparseable value %q: %v", ln+1, m[3], err)
			}
			series := m[1] + m[2]
			if _, dup := samples[series]; dup {
				t.Fatalf("line %d: duplicate series %s", ln+1, series)
			}
			samples[series] = v
		}
	}
	return samples
}

// histInvariants checks one rendered histogram child: cumulative
// monotonically non-decreasing buckets, a +Inf bucket present and equal to
// _count — the invariant scrapers reject violations of.
func histInvariants(t *testing.T, samples map[string]float64, name, labels string) {
	t.Helper()
	sep := ""
	if labels != "" {
		sep = ","
	}
	var prev float64
	var infSeen bool
	var inf float64
	// Walk buckets in the rendered (ascending) bound order by re-deriving
	// the keys from the known bound sets.
	for _, bounds := range [][]float64{DefBuckets, JobBuckets} {
		key := func(b string) string {
			if labels == "" {
				return fmt.Sprintf("%s_bucket{le=%q}", name, b)
			}
			return fmt.Sprintf("%s_bucket{%s%sle=%q}", name, labels, sep, b)
		}
		if _, ok := samples[key(strconv.FormatFloat(bounds[0], 'g', -1, 64))]; !ok {
			continue
		}
		prev = 0
		for _, b := range bounds {
			v, ok := samples[key(strconv.FormatFloat(b, 'g', -1, 64))]
			if !ok {
				t.Fatalf("%s: missing bucket le=%g", name, b)
			}
			if v < prev {
				t.Fatalf("%s: bucket le=%g count %g below previous %g (not cumulative)", name, b, v, prev)
			}
			prev = v
		}
		inf, infSeen = samples[key("+Inf")]
		if !infSeen {
			t.Fatalf("%s: missing mandatory +Inf bucket", name)
		}
		if inf < prev {
			t.Fatalf("%s: +Inf bucket %g below last finite bucket %g", name, inf, prev)
		}
		countKey := name + "_count"
		if labels != "" {
			countKey = fmt.Sprintf("%s_count{%s}", name, labels)
		}
		count, ok := samples[countKey]
		if !ok {
			t.Fatalf("%s: missing _count", name)
		}
		if count != inf {
			t.Fatalf("%s: _count %g != +Inf bucket %g", name, count, inf)
		}
		return
	}
	t.Fatalf("%s: no bucket series found", name)
}

// TestMetricsWireFormat pins the full /metrics text output of a populated
// registry against the exposition-format rules.
func TestMetricsWireFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_uploads_total", "uploads")
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	v := r.CounterVec("t_rejected_total", "rejections", "reason")
	v.With("queue_full").Inc()
	v.With("draining").Inc()
	v.With("draining").Inc()
	r.GaugeFunc("t_depth", "queue depth", func() int64 { return -2 })
	r.GaugeFunc("t_inflight", "in flight", func() int64 { return 7 })
	h := r.Histogram("t_job_seconds", "job latency", JobBuckets)
	for _, s := range []float64{0.01, 0.3, 4, 700} {
		h.Observe(s)
	}
	hv := r.HistogramVec("t_stage_seconds", "stage latency", "stage", nil)
	hv.With("detect").Observe(0.002)
	hv.With("ingest").Observe(0.5)

	var buf bytes.Buffer
	r.writeExposition(&buf)
	samples := parseExposition(t, buf.String())

	if samples["t_uploads_total"] != 3 {
		t.Errorf("t_uploads_total = %g", samples["t_uploads_total"])
	}
	if samples[`t_rejected_total{reason="draining"}`] != 2 {
		t.Errorf("t_rejected_total{draining} = %g", samples[`t_rejected_total{reason="draining"}`])
	}
	if samples["t_depth"] != -2 || samples["t_inflight"] != 7 {
		t.Errorf("gauges = %g, %g", samples["t_depth"], samples["t_inflight"])
	}

	histInvariants(t, samples, "t_job_seconds", "")
	histInvariants(t, samples, "t_stage_seconds", `stage="detect"`)
	histInvariants(t, samples, "t_stage_seconds", `stage="ingest"`)

	// The 700s observation exceeds every finite JobBuckets bound: only the
	// +Inf bucket (and _count) may count it.
	top := fmt.Sprintf("t_job_seconds_bucket{le=%q}", strconv.FormatFloat(JobBuckets[len(JobBuckets)-1], 'g', -1, 64))
	if samples[top] != 3 {
		t.Errorf("top finite bucket = %g, want 3", samples[top])
	}
	if samples[`t_job_seconds_bucket{le="+Inf"}`] != 4 {
		t.Errorf("+Inf bucket = %g, want 4", samples[`t_job_seconds_bucket{le="+Inf"}`])
	}
	if got := samples["t_job_seconds_sum"]; math.Abs(got-704.31) > 1e-9 {
		t.Errorf("_sum = %g, want 704.31", got)
	}
}

// TestHistogramCountMatchesInfUnderLoad pins the fix for the exposition
// deviation this PR's wire test found: _count was rendered from a separate
// atomic and could disagree with the +Inf bucket when observations raced a
// scrape. Hammer a histogram while scraping and require _count == +Inf on
// every render.
func TestHistogramCountMatchesInfUnderLoad(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_race_seconds", "raced", nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(seed + float64(i%100)/100)
			}
		}(float64(w) / 10)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		r.writeExposition(&buf)
		samples := parseExposition(t, buf.String())
		inf := samples[`t_race_seconds_bucket{le="+Inf"}`]
		count := samples["t_race_seconds_count"]
		if count != inf {
			t.Fatalf("scrape %d: _count %g != +Inf bucket %g", i, count, inf)
		}
	}
	close(stop)
	wg.Wait()
}
