package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"mawilab"
	"mawilab/internal/parallel"
	"mawilab/internal/trace"
)

// mixedTrace is one distinct upload of TestMixedRunReconciles and the CSV
// the daemon must serve for it.
type mixedTrace struct {
	name   string
	pcap   []byte
	digest string
	csv    []byte
}

// mixedTally is what the clients saw on the wire, summed across them.
type mixedTally struct {
	mu       sync.Mutex
	ok2xx    int             // upload replies 200 or 202
	rejected int             // upload replies 429
	cached   int             // upload replies with cached:true
	jobs     int             // upload replies carrying a job id
	jobIDs   map[string]bool // the distinct job ids among them
}

// mixedClient is one client's HTTP round trips. It reports a failure as an
// error, so that it can run off the test goroutine.
type mixedClient struct {
	base  string
	tally *mixedTally
}

func (c *mixedClient) get(path string) (int, []byte, error) {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// upload posts tr until it is not bounced, tallies every reply, and waits out
// the job a reply carries, so that tr is labeled when it returns.
func (c *mixedClient) upload(tr *mixedTrace) error {
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(c.base+"/v1/traces?name="+tr.name, "application/vnd.tcpdump.pcap", bytes.NewReader(tr.pcap))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			c.tally.mu.Lock()
			c.tally.rejected++
			c.tally.mu.Unlock()
			if attempt == 100 {
				return fmt.Errorf("upload %s: still bounced after %d attempts", tr.name, attempt)
			}
			time.Sleep(20 * time.Millisecond)
			continue
		case http.StatusOK, http.StatusAccepted:
		default:
			return fmt.Errorf("upload %s: status %d: %s", tr.name, resp.StatusCode, body)
		}
		var out uploadResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("upload %s: %v", tr.name, err)
		}
		if out.Digest != tr.digest {
			return fmt.Errorf("upload %s: digest %s, want %s", tr.name, out.Digest, tr.digest)
		}
		c.tally.mu.Lock()
		c.tally.ok2xx++
		if out.Cached {
			c.tally.cached++
		}
		if out.JobID != "" {
			c.tally.jobs++
			c.tally.jobIDs[out.JobID] = true
		}
		c.tally.mu.Unlock()
		if out.JobID == "" {
			return nil
		}
		return c.awaitJob(out.JobID)
	}
}

func (c *mixedClient) awaitJob(id string) error {
	for deadline := time.Now().Add(120 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		code, body, err := c.get("/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var j Job
		if code != http.StatusOK || json.Unmarshal(body, &j) != nil {
			return fmt.Errorf("job %s: status %d: %s", id, code, body)
		}
		switch j.State {
		case JobDone:
			return nil
		case JobFailed:
			return fmt.Errorf("job %s failed: %s", id, j.Error)
		}
	}
	return fmt.Errorf("job %s never finished", id)
}

// visit is one client's five operations on tr: upload, re-upload, read the
// CSV, query ?flows= and probe /healthz.
func (c *mixedClient) visit(tr *mixedTrace) error {
	if err := c.upload(tr); err != nil {
		return err
	}
	if err := c.upload(tr); err != nil {
		return err
	}
	code, csv, err := c.get("/v1/labels/" + tr.digest + ".csv")
	if err != nil {
		return err
	}
	if code != http.StatusOK || !bytes.Equal(csv, tr.csv) {
		return fmt.Errorf("labels %s: status %d, served CSV differs from the local reference", tr.name, code)
	}
	code, body, err := c.get("/v1/labels/" + tr.digest + "/communities?flows=2")
	if err != nil {
		return err
	}
	var flows []communityWithFlows
	if code != http.StatusOK || json.Unmarshal(body, &flows) != nil {
		return fmt.Errorf("flows %s: status %d: %s", tr.name, code, body)
	}
	for _, cf := range flows {
		if len(cf.MatchedFlows) > 2 {
			return fmt.Errorf("flows %s: community %d answers %d flows, limit 2", tr.name, cf.Community, len(cf.MatchedFlows))
		}
	}
	if code, _, err := c.get("/healthz"); err != nil || code != http.StatusOK {
		return fmt.Errorf("healthz: status %d, %v", code, err)
	}
	return nil
}

// TestMixedRunReconciles drives the daemon the way its clients do, all at
// once: parallel clients upload distinct traces, re-upload them, read their
// CSVs, query ?flows= and probe /healthz against two job workers and a
// one-slot queue. Every served CSV must equal the local reference, each trace
// is labeled by exactly one job, and the daemon's counters must equal what
// the clients saw on the wire, exactly: a counter increments on the branch a
// reply comes from, so any difference is an accounting bug, not noise. Run
// under -race.
func TestMixedRunReconciles(t *testing.T) {
	const traces, clients = 4, 8
	corpus := make([]*mixedTrace, traces)
	for i := range corpus {
		arch := mawilab.NewArchive(int64(7 + i))
		arch.Duration = 4
		arch.BaseRate = 60
		data := pcapBytes(t, arch.Day(mawilab.Date(2004, 5, 10+i)).Trace)
		tr, err := mawilab.ReadPcap(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		corpus[i] = &mixedTrace{name: fmt.Sprintf("mixed-%d", i), pcap: data, digest: trace.NewIndex(tr).Digest(), csv: referenceCSV(t, data)}
	}
	_, ts := newTestServer(t, Config{JobWorkers: 2, QueueDepth: 1})

	tally := &mixedTally{jobIDs: map[string]bool{}}
	err := parallel.ForEach(context.Background(), clients, clients, func(_ context.Context, i int) error {
		c := &mixedClient{base: ts.URL, tally: tally}
		for k := 0; k < traces; k++ {
			if err := c.visit(corpus[(i+k)%traces]); err != nil {
				return fmt.Errorf("client %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("uploads: %d answered, %d bounced, %d cache hits, %d job-carrying, %d jobs",
		tally.ok2xx, tally.rejected, tally.cached, tally.jobs, len(tally.jobIDs))
	_, body, _ := get(t, ts.URL+"/metrics", nil)
	m := parseExposition(t, string(body))
	for _, eq := range []struct {
		series string
		seen   int
		what   string
	}{
		{"mawilabd_uploads_total", tally.ok2xx + tally.rejected, "2xx + 429 replies"},
		{"mawilabd_cache_hits_total", tally.cached, "cached:true replies"},
		{"mawilabd_cache_misses_total", tally.jobs, "job-carrying replies"},
		{`mawilabd_uploads_rejected_total{reason="queue_full"}`, tally.rejected, "429 replies"},
		{`mawilabd_jobs_finished_total{state="done"}`, len(tally.jobIDs), "distinct job ids"},
	} {
		if m[eq.series] != float64(eq.seen) {
			t.Errorf("%s = %g, clients saw %d %s", eq.series, m[eq.series], eq.seen, eq.what)
		}
	}
	if len(tally.jobIDs) != traces {
		t.Errorf("%d distinct jobs labeled %d distinct traces", len(tally.jobIDs), traces)
	}
	if tally.cached == 0 {
		t.Error("no re-upload was a cache hit")
	}
}
