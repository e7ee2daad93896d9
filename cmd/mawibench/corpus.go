package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mawilab"
)

// corpusSeed seeds the synthetic archive every corpus is drawn from. It is a
// constant, not -seed: one archive day costs 0.05–0.25 s to label depending
// on its anomaly draw, so corpora drawn per seed differ by ±25 % in every
// end-to-end metric and no bound could be held across seeds. -seed instead
// drives what a real change of inputs leaves the cost of unchanged: the order
// days are labeled and streamed in, which client uploads which trace, and the
// op and popularity draws of the mixed workload.
const corpusSeed = 1

// corpusSpec describes one workload's input days.
type corpusSpec struct {
	key      string // section of expected.json
	duration float64
	baseRate float64
	dates    []time.Time
	// keepPcap and keepTrace say which forms of a day the workload consumes;
	// the other is dropped so the generator's heap stays small.
	keepPcap, keepTrace bool
}

var d = mawilab.Date

// The dates are spread over the archive's eras — the 2003 Blaster and 2004
// Sasser outbreaks, the 2006 and 2007 link upgrades, the post-2007 P2P rise —
// so the anomaly mix and the packet rate differ from day to day.
var (
	batchCorpus = corpusSpec{key: "batch_day", duration: 60, baseRate: 300, keepPcap: true, dates: []time.Time{
		d(2001, 3, 6), d(2002, 5, 14), d(2003, 8, 20), d(2004, 5, 10),
		d(2005, 7, 3), d(2006, 11, 19), d(2008, 2, 8), d(2009, 9, 27),
	}}
	streamCorpus = corpusSpec{key: "stream_sliding", duration: 600, baseRate: 300, keepTrace: true, dates: []time.Time{
		d(2002, 2, 11), d(2003, 9, 8), d(2004, 5, 10), d(2006, 10, 16),
	}}
	serveCorpus = corpusSpec{key: "serve", duration: 30, baseRate: 200, keepPcap: true, dates: []time.Time{
		d(2001, 2, 5), d(2001, 9, 17), d(2002, 4, 8), d(2002, 11, 25),
		d(2003, 3, 3), d(2003, 10, 20), d(2004, 1, 12), d(2004, 6, 7),
		d(2005, 2, 14), d(2005, 8, 1), d(2006, 5, 22), d(2006, 12, 4),
		d(2007, 4, 16), d(2007, 10, 29), d(2008, 6, 9), d(2008, 12, 15),
	}}
	// warmupCorpus is one more day of the serve shape, outside serveCorpus:
	// every fresh daemon of serve_upload labels it, untimed, before its round,
	// so the round does not time a process growing its heap.
	warmupCorpus = corpusSpec{key: "serve_warmup", duration: 30, baseRate: 200, keepPcap: true, dates: []time.Time{d(2009, 3, 9)}}
)

// day is one generated input.
type day struct {
	name    string
	packets int
	trace   *mawilab.Trace  // nil unless the spec keeps it
	pcap    []byte          // nil unless the spec keeps it
	truth   []mawilab.Event // generator ground truth
	want    expectedDay     // pinned reference; zero under -update-expected
}

// generate builds a spec's days and attaches their pinned references.
func generate(spec corpusSpec, exp *expected) ([]day, error) {
	arch := mawilab.NewArchive(corpusSeed)
	arch.Duration, arch.BaseRate = spec.duration, spec.baseRate
	days := make([]day, len(spec.dates))
	for i, date := range spec.dates {
		res := arch.Day(date)
		dy := day{name: res.Trace.Name, packets: res.Trace.Len(), truth: res.Truth}
		if spec.keepPcap {
			// Sized up front (record header + Ethernet header + IP length per
			// packet, a little over for short packets): growing a buffer of
			// tens of megabytes by doubling copies it several times over.
			size := 24
			for i := range res.Trace.Packets {
				size += 16 + 14 + max(int(res.Trace.Packets[i].Len), 40)
			}
			var buf bytes.Buffer
			buf.Grow(size)
			if err := mawilab.WritePcap(&buf, res.Trace); err != nil {
				return nil, fmt.Errorf("encoding %s: %w", dy.name, err)
			}
			dy.pcap = buf.Bytes()
		}
		if spec.keepTrace {
			dy.trace = res.Trace
		}
		if exp != nil {
			want, ok := exp.find(spec.key, dy.name)
			if !ok {
				return nil, fmt.Errorf("expected.json has no %s entry for %s; run with -update-expected", spec.key, dy.name)
			}
			dy.want = want
		}
		days[i] = dy
	}
	return days, nil
}

// expectedDay pins what labeling one corpus day must produce. For a stream
// day the counts are summed over its windows and the digest covers the
// windows' CSVs concatenated in emission order.
type expectedDay struct {
	Day         string `json:"day"`
	Packets     int    `json:"packets"`
	Alarms      int    `json:"alarms"`
	Communities int    `json:"communities"`
	Windows     int    `json:"windows,omitempty"`
	CSVSHA256   string `json:"csv_sha256"`
}

// expected is cmd/mawibench/expected.json: the pinned references of every
// corpus, so a change that alters a label fails ops instead of looking fast.
type expected struct {
	CorpusSeed int64                    `json:"corpus_seed"`
	Corpora    map[string][]expectedDay `json:"corpora"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expected, error) {
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if exp.CorpusSeed != corpusSeed {
		return nil, fmt.Errorf("expected.json pins corpus seed %d, the benchmark generates %d; run with -update-expected", exp.CorpusSeed, corpusSeed)
	}
	return &exp, nil
}

func (e *expected) find(key, name string) (expectedDay, bool) {
	for _, dy := range e.Corpora[key] {
		if dy.Day == name {
			return dy, true
		}
	}
	return expectedDay{}, false
}

// check compares one produced labeling against its pin.
func (want expectedDay) check(csv []byte, alarms, communities int) error {
	if got := sha(csv); got != want.CSVSHA256 {
		return fmt.Errorf("%s: csv sha256 %s, pinned %s", want.Day, got[:12], want.CSVSHA256[:12])
	}
	if alarms != want.Alarms || communities != want.Communities {
		return fmt.Errorf("%s: %d alarms / %d communities, pinned %d / %d", want.Day, alarms, communities, want.Alarms, want.Communities)
	}
	return nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// updateExpected recomputes every pin on the sequential reference path and
// rewrites expected.json beside this source file.
func updateExpected(ctx context.Context, root string) error {
	exp := expected{CorpusSeed: corpusSeed, Corpora: make(map[string][]expectedDay)}
	for _, spec := range []corpusSpec{batchCorpus, serveCorpus, warmupCorpus} {
		days, err := generate(spec, nil)
		if err != nil {
			return err
		}
		for _, dy := range days {
			tr, err := mawilab.ReadPcap(bytes.NewReader(dy.pcap))
			if err != nil {
				return err
			}
			l, err := mawilab.NewPipeline().RunContext(ctx, tr)
			if err != nil {
				return err
			}
			var csv bytes.Buffer
			if err := l.WriteCSV(&csv); err != nil {
				return err
			}
			exp.Corpora[spec.key] = append(exp.Corpora[spec.key], expectedDay{
				Day: dy.name, Packets: dy.packets, Alarms: len(l.Alarms),
				Communities: len(l.Reports), CSVSHA256: sha(csv.Bytes()),
			})
		}
	}
	days, err := generate(streamCorpus, nil)
	if err != nil {
		return err
	}
	for _, dy := range days {
		pass, err := streamDay(ctx, dy, nil)
		if err != nil {
			return err
		}
		exp.Corpora[streamCorpus.key] = append(exp.Corpora[streamCorpus.key], expectedDay{
			Day: dy.name, Packets: dy.packets, Alarms: pass.alarms,
			Communities: pass.communities, Windows: len(pass.latencies), CSVSHA256: sha(pass.csv),
		})
	}
	data, err := json.MarshalIndent(&exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "cmd", "mawibench", "expected.json"), append(data, '\n'), 0o644)
}
