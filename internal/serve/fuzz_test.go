package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mawilab"
	"mawilab/internal/trace"
)

// FuzzUploadHandler posts arbitrary bodies to POST /v1/traces on one
// in-process server whose pipeline runs no detector, so an accepted body
// costs microseconds. Whatever the body:
//   - the status is 200, 202, 400 or 429 — never a 5xx, never a panic;
//   - a 2xx names the digest mawilab.DecodePcap gives the body, and the job
//     a 202 carries ends done;
//   - a 400 adds no job and no store entry.
//
// Seeds: the shapes of the pcap package's corpus — full-payload and
// header-only records, truncations, unsorted records, a record with origlen
// and IPv4 total length 0 — and a truncated golden day.
func FuzzUploadHandler(f *testing.F) {
	tiny := pcapBytes(f, tinyTrace(3))
	var stripped bytes.Buffer
	if err := mawilab.EncodePcap(&stripped, trace.NewIndex(tinyTrace(3))); err != nil {
		f.Fatal(err)
	}
	unsorted := tinyTrace(2)
	unsorted.Packets[0].TS, unsorted.Packets[1].TS = 9_000_000, 1_000_000
	for _, seed := range [][]byte{
		nil,
		[]byte("not a pcap"),
		tiny,
		tiny[:len(tiny)-3],
		tiny[:24+8],
		stripped.Bytes(),
		pcapBytes(f, unsorted),
		zeroLengthPcap(f),
		pcapBytes(f, goldenDay(f))[:4096],
	} {
		f.Add(seed)
	}

	s, err := New(Config{
		StoreDir: f.TempDir(),
		NewPipeline: func() *mawilab.Pipeline {
			p := mawilab.NewPipeline()
			p.Detectors = nil
			p.Strategy = mawilab.Average()
			return p
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	jobs := func() int {
		s.engine.mu.Lock()
		defer s.engine.mu.Unlock()
		return len(s.engine.jobs)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		jobsBefore, entriesBefore := jobs(), s.store.Len()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/traces?name=fuzz", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
			var resp uploadResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%d answer %q: %v", rec.Code, rec.Body, err)
			}
			ix, err := mawilab.DecodePcap(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%d for a body DecodePcap rejects: %v", rec.Code, err)
			}
			want := ix.Digest()
			ix.Release()
			if resp.Digest != want {
				t.Fatalf("%d names digest %s, DecodePcap gives %s", rec.Code, resp.Digest, want)
			}
			if resp.JobID != "" {
				waitState(t, s.engine, resp.JobID, JobDone)
			}
		case http.StatusBadRequest:
			if n := jobs(); n != jobsBefore {
				t.Fatalf("a 400 (%q) changed the job count %d → %d", rec.Body, jobsBefore, n)
			}
			if n := s.store.Len(); n != entriesBefore {
				t.Fatalf("a 400 (%q) changed the store entries %d → %d", rec.Body, entriesBefore, n)
			}
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d: %q", rec.Code, rec.Body)
		}
	})
}
