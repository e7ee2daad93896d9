package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mawilab"
	"mawilab/internal/parallel"
	"mawilab/internal/serve"
	wirev1 "mawilab/internal/serve/v1"
)

const (
	pollEvery = 2 * time.Millisecond
	opTimeout = 30 * time.Second
)

// uploadReply is POST /v1/traces on the wire.
type uploadReply struct {
	Digest string `json:"digest"`
	Cached bool   `json:"cached"`
	JobID  string `json:"job_id"`
}

// jobReply is GET /v1/jobs/{id} on the wire.
type jobReply struct {
	State      string    `json:"state"`
	Error      string    `json:"error"`
	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
}

// getBody fetches url and returns the body of a 200 reply.
func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// postTrace uploads one pcap. Any status but 200/202 — a 429 or 503 too — is
// an error: the workloads are sized so the daemon never has to refuse.
func postTrace(client *http.Client, base string, dy *day) (uploadReply, error) {
	var reply uploadReply
	resp, err := client.Post(base+"/v1/traces?name="+dy.name, "application/vnd.tcpdump.pcap", bytes.NewReader(dy.pcap))
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return reply, fmt.Errorf("POST %s: %s: %s", dy.name, resp.Status, bytes.TrimSpace(body))
	}
	return reply, json.Unmarshal(body, &reply)
}

// uploadOp is the client's view of one serve_upload op.
type uploadOp struct {
	postStart, postEnd, done, fetched time.Time
	polls                             int
	day                               int // index into the corpus
	digest                            string
	job                               jobReply
}

// uploadLabeled is one serve_upload op: POST, poll the job until done, GET
// the labels, compare with the pin.
func uploadLabeled(client *http.Client, base string, dy *day) (uploadOp, error) {
	op := uploadOp{postStart: time.Now()}
	reply, err := postTrace(client, base, dy)
	op.postEnd = time.Now()
	if err != nil {
		return op, err
	}
	op.digest = reply.Digest
	if reply.Cached || reply.JobID == "" {
		return op, fmt.Errorf("%s: upload to an empty store answered cached=%v job=%q", dy.name, reply.Cached, reply.JobID)
	}
	for {
		body, err := getBody(client, base+"/v1/jobs/"+reply.JobID)
		if err != nil {
			return op, err
		}
		op.polls++
		if err := json.Unmarshal(body, &op.job); err != nil {
			return op, err
		}
		if op.job.State == "done" {
			break
		}
		if op.job.State == "failed" {
			return op, fmt.Errorf("%s: job failed: %s", dy.name, op.job.Error)
		}
		if time.Since(op.postStart) > opTimeout {
			return op, fmt.Errorf("%s: not labeled within %v", dy.name, opTimeout)
		}
		time.Sleep(pollEvery)
	}
	op.done = time.Now()
	csv, err := getBody(client, base+"/v1/labels/"+reply.Digest+".csv")
	op.fetched = time.Now()
	if err != nil {
		return op, err
	}
	if got := sha(csv); got != dy.want.CSVSHA256 {
		return op, fmt.Errorf("%s: served csv sha256 %s, pinned %s", dy.name, got[:12], dy.want.CSVSHA256[:12])
	}
	return op, nil
}

// uploadInputs is what every round of a serve_upload run is given.
type uploadInputs struct {
	cfg  config
	bin  string // the daemon
	warm *day   // labeled, untimed, by every fresh daemon before its round
	days []day
}

// uploadTotals accumulates rounds of serve_upload.
type uploadTotals struct {
	ops        []uploadOp
	seconds    float64   // timed: first POST of a round to its last verified labeling
	rounds     []float64 // the same, per round
	bytes      float64
	cpu        float64
	stageSum   map[string]float64
	stageCount map[string]float64
	rejected   float64
	misses     float64
}

var jobStages = []string{"ingest", "detect", "estimate", "label"}

// uploadRound starts a fresh daemon on an empty store, has it label the
// warm-up day, has the clients label the whole corpus in the given order, and
// stops the daemon. Only the part between the corpus' first POST and its last
// verified labeling is timed.
func (in uploadInputs) round(ctx context.Context, order []int, rec *recorder, res *result, tot *uploadTotals) error {
	cfg, days := in.cfg, in.days
	store, err := os.MkdirTemp(cfg.stores, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(store)
	dmn, err := startDaemon(ctx, in.bin, store)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients}}
	defer client.CloseIdleConnections()
	if _, err := uploadLabeled(client, dmn.base, in.warm); err != nil {
		dmn.stop()
		return fmt.Errorf("warm-up upload: %w", err)
	}
	before, err := dmn.scrape(client)
	if err != nil {
		dmn.stop()
		return err
	}

	var next atomic.Int64
	ops := make([][]uploadOp, cfg.clients)
	errs := make([][]error, cfg.clients)
	start := time.Now()
	_ = parallel.ForEach(ctx, cfg.clients, cfg.clients, func(_ context.Context, c int) error {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(order) {
				return nil
			}
			op, err := uploadLabeled(client, dmn.base, &days[order[i]])
			op.day = order[i]
			ops[c] = append(ops[c], op)
			errs[c] = append(errs[c], err)
		}
	})
	round := time.Since(start).Seconds()
	tot.seconds += round
	tot.rounds = append(tot.rounds, round)

	after, err := dmn.scrape(client)
	if err != nil {
		dmn.stop()
		return err
	}
	cpu, err := dmn.stop()
	if err != nil {
		return err
	}
	tot.cpu += cpu
	for c := range ops {
		for i, op := range ops[c] {
			res.op(errs[c][i])
			if errs[c][i] != nil {
				continue
			}
			tot.ops = append(tot.ops, op)
			id := rec.add("upload", op.postStart, op.fetched, 0, 0)
			rec.add("serve.post", op.postStart, op.postEnd, id, id)
			rec.add("engine.queue_wait", op.job.EnqueuedAt, op.job.StartedAt, id, id)
			rec.add("engine.job", op.job.StartedAt, op.job.FinishedAt, id, id)
			rec.add("serve.fetch", op.done, op.fetched, id, id)
		}
	}
	for _, i := range order {
		tot.bytes += float64(len(days[i].pcap))
	}
	for _, stage := range jobStages {
		labels := fmt.Sprintf("{stage=%q}", stage)
		tot.stageSum[stage] += delta(before, after, "mawilabd_stage_seconds_sum"+labels)
		tot.stageCount[stage] += delta(before, after, "mawilabd_stage_seconds_count"+labels)
	}
	tot.rejected += delta(before, after, `mawilabd_uploads_rejected_total{reason="queue_full"}`) +
		delta(before, after, `mawilabd_uploads_rejected_total{reason="draining"}`)
	tot.misses += delta(before, after, "mawilabd_cache_misses_total")
	return nil
}

// rounds repeats rounds, each in a fresh seeded order, until the timed
// seconds reach d.
func (in uploadInputs) rounds(ctx context.Context, stream uint64, d time.Duration, rec *recorder, res *result) (*uploadTotals, error) {
	tot := &uploadTotals{stageSum: make(map[string]float64), stageCount: make(map[string]float64)}
	rng := newStream(in.cfg.seed, stream)
	for tot.seconds < d.Seconds() {
		if err := in.round(ctx, rng.perm(len(in.days)), rec, res, tot); err != nil {
			return nil, err
		}
	}
	return tot, nil
}

func (t *uploadTotals) labeled() []float64 {
	v := make([]float64, len(t.ops))
	for i, op := range t.ops {
		v[i] = op.fetched.Sub(op.postStart).Seconds()
	}
	return v
}

// typical is the upload-to-labeling time of a typical corpus trace: each
// trace's median over the rounds, averaged over the traces. Which trace
// queues behind which changes from round to round with the shuffle; taking
// the median per trace first keeps that, and a slow stretch of the box, out
// of the figure.
func (t *uploadTotals) typical(days int) float64 {
	perDay := make([][]float64, days)
	for _, op := range t.ops {
		perDay[op.day] = append(perDay[op.day], op.fetched.Sub(op.postStart).Seconds())
	}
	var medians []float64
	for _, v := range perDay {
		if len(v) > 0 {
			medians = append(medians, median(v))
		}
	}
	return mean(medians)
}

// runServeUpload is the serve_upload workload.
func runServeUpload(ctx context.Context, cfg config) (*result, error) {
	res := newResult("serve_upload")
	var (
		days, warm []day
		bin        string
	)
	err := res.setup(cfg, func() (err error) {
		if days, err = generate(serveCorpus, cfg.exp); err != nil {
			return err
		}
		if warm, err = generate(warmupCorpus, cfg.exp); err != nil {
			return err
		}
		bin, err = buildDaemon(ctx, cfg.root, cfg.work)
		return err
	})
	if err != nil {
		return nil, err
	}

	in := uploadInputs{cfg, bin, &warm[0], days}
	tot, err := in.rounds(ctx, 1, cfg.duration, nil, res)
	if err != nil {
		return nil, err
	}
	labeled := tot.labeled()
	res.OpS = tot.typical(len(days))
	res.OpsPerS = float64(len(days)) / median(tot.rounds)
	res.Named["upload_labeled_s"] = res.OpS
	res.Named["uploads_per_s"] = res.OpsPerS
	res.Samples["upload_labeled_s"] = summarize(labeled)
	if len(labeled) >= 100 {
		res.Named["upload_labeled_p90_s"] = percentile(sorted(labeled), 0.90)
	} else {
		res.note("upload_labeled_p90_s omitted as an end-to-end metric: %d uploads, it needs 100", len(labeled))
	}
	res.Layer["upload_labeled_p90_s"] = percentile(sorted(labeled), 0.90)

	if cfg.traced > 0 {
		rec := newRecorder()
		traceRes := newResult(res.Workload)
		tt, err := in.rounds(ctx, 2, cfg.traced, rec, traceRes)
		if err != nil {
			return nil, err
		}
		if traceRes.Failed > 0 {
			return nil, fmt.Errorf("traced uploads failed: %s", traceRes.Errors[0])
		}
		if err := replayJobs(ctx, cfg, rec, days, res); err != nil {
			return nil, err
		}
		tt.layers(rec, res, len(days))
		if err := rec.write(cfg.spanFile("serve_upload")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layers reduces a traced set of rounds to the serve_upload per-layer metrics.
func (t *uploadTotals) layers(rec *recorder, res *result, days int) {
	n := float64(len(t.ops))
	lt := selfTimes(rec.spans)
	var waits []float64
	polls := 0.0
	for _, op := range t.ops {
		waits = append(waits, op.job.StartedAt.Sub(op.job.EnqueuedAt).Seconds())
		polls += float64(op.polls)
	}
	res.Layer["serve.post_s"] = lt["serve.post"].Total / n
	res.Layer["engine.queue_wait_s"] = mean(waits)
	res.Layer["engine.queue_wait_p90_s"] = percentile(sorted(waits), 0.90)
	res.Layer["engine.job_s"] = lt["engine.job"].Total / n
	inJob := 0.0
	for _, stage := range jobStages {
		perCall := 0.0
		if t.stageCount[stage] > 0 {
			perCall = t.stageSum[stage] / t.stageCount[stage]
		}
		res.Layer["serve.stage_"+stage+"_s"] = perCall
		if stage != "ingest" { // the daemon observes ingest at admission, before the job starts
			inJob += t.stageSum[stage] / n
		}
	}
	res.Layer["serve.job_tail_s"] = lt["engine.job"].Total/n - inJob
	res.Layer["serve.polls_per_upload"] = polls / n
	res.Layer["serve.upload_mb_per_s"] = t.bytes / 1e6 / t.seconds
	res.Layer["serve.cpu_s_per_upload"] = t.cpu / (n + float64(len(t.rounds))) // each round labeled the warm-up day too
	res.Layer["serve.rejected"] = t.rejected
	res.Layer["serve.cache_misses"] = t.misses
	res.Layer["serve.unaccounted_share"] = lt["upload"].Self / lt["upload"].Total
	res.Layer["serve.trace_overhead_share"] = (t.typical(days) - res.OpS) / res.OpS
}

// replayJobs runs what the daemon's job does to one upload — decode, digest,
// label, encode both formats, re-encode the pcap, persist — in this process,
// over the same corpus, one span per call. It is the only view of the job's
// tail the daemon does not observe itself.
func replayJobs(ctx context.Context, cfg config, rec *recorder, days []day, res *result) error {
	dir, err := os.MkdirTemp(cfg.stores, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := serve.OpenStore(filepath.Join(dir, "store"), 0)
	if err != nil {
		return err
	}
	for i := range days {
		dy := &days[i]
		op := rec.open("job", 0, 0)
		start := time.Now()
		var (
			ix             *mawilab.Index
			digest         string
			l              *mawilab.Labeling
			csv, admd, enc bytes.Buffer
		)
		err := rec.run(op, []step{
			{"pcap.decode", func() (err error) { ix, err = mawilab.DecodePcap(bytes.NewReader(dy.pcap)); return }},
			{"trace.digest", func() error { digest = ix.Digest(); return nil }},
			{"pipeline.runindex", func() (err error) {
				p := mawilab.NewPipeline()
				p.Workers = 1
				l, err = p.RunIndex(ctx, ix)
				return
			}},
			{"wire.csv", func() error { return l.WriteCSV(&csv) }},
			{"wire.admd", func() error { return wirev1.WriteADMD(&admd, dy.name, ix, l.Reports) }},
			{"pcap.encode", func() error { return mawilab.EncodePcap(&enc, ix) }},
			{"store.put", func() error {
				meta := &serve.EntryMeta{Digest: digest, Trace: dy.name, Packets: ix.Len(), Alarms: len(l.Alarms), CSVSHA256: sha(csv.Bytes())}
				for _, rep := range l.Reports {
					src, sport, dst, dport := wirev1.BestRule(rep)
					meta.Communities = append(meta.Communities, serve.StoredCommunity{
						Community: rep.Community, Label: rep.Label.String(),
						SrcIP: src, SrcPort: sport, DstIP: dst, DstPort: dport,
						Heuristic: rep.Class.String(), Category: rep.Category.String(),
						Packets: rep.Packets, Flows: rep.Flows, Score: rep.Decision.Score,
					})
				}
				return store.Put(meta, csv.Bytes(), admd.Bytes(), enc.Bytes())
			}},
		})
		if err != nil {
			return fmt.Errorf("job replay of %s: %w", dy.name, err)
		}
		rec.close(op, start, time.Now())
		ix.Release()
		if err := dy.want.check(csv.Bytes(), len(l.Alarms), len(l.Reports)); err != nil {
			return fmt.Errorf("job replay: %w", err)
		}
	}
	lt := selfTimes(rec.spans)
	for _, name := range []string{"pcap.decode", "trace.digest", "pipeline.runindex", "wire.csv", "wire.admd", "pcap.encode", "store.put"} {
		res.Layer[name+"_s"] = lt[name].Total / float64(len(days))
	}
	return nil
}
