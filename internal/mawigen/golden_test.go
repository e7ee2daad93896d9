package mawigen

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mawilab/internal/trace"
)

// update regenerates the committed golden digests. Generation output is only
// allowed to move with a deliberate fixture refresh:
//
//	go test ./internal/mawigen -run TestGenerateDeterminism -update
var update = flag.Bool("update", false, "rewrite golden fixture files")

// goldenRecord pins one fixture's generated output.
type goldenRecord struct {
	Name string `json:"name"`
	// Packets is the trace length; a quick first-line diff when the
	// digest moves.
	Packets int `json:"packets"`
	// TraceSHA256 digests every packet field of the sorted trace.
	TraceSHA256 string `json:"trace_sha256"`
	// TruthEvents and TruthPackets pin the ground-truth shape.
	TruthEvents  int `json:"truth_events"`
	TruthPackets int `json:"truth_packets"`
}

// goldenFixture is one generation scenario of the determinism matrix.
type goldenFixture struct {
	name string
	gen  func() *Result
}

// goldenFixtures covers background-only, anomaly-heavy, non-default window
// counts, and a full archive day (which layers the per-day anomaly draw and
// worm eras on top of Generate).
func goldenFixtures() []goldenFixture {
	return []goldenFixture{
		{"background-default", func() *Result {
			return Generate(DefaultConfig(7))
		}},
		{"anomalies-mixed", func() *Result {
			cfg := DefaultConfig(42)
			cfg.Duration = 30
			cfg.BackgroundRate = 200
			cfg.Anomalies = []Spec{
				{Kind: KindPortScan, Start: 2, Duration: 10, Rate: 80},
				{Kind: KindSYNFlood, Start: 5, Duration: 12, Rate: 150},
				{Kind: KindFlashCrowd, Start: 12, Duration: 10, Rate: 120},
				{Kind: KindWormSasser, Start: 1, Duration: 20, Rate: 90},
			}
			return Generate(cfg)
		}},
		{"windows-4-short", func() *Result {
			cfg := Config{
				Seed:           9,
				Duration:       12,
				BackgroundRate: 150,
				P2PShare:       0.3,
				Windows:        4,
				Anomalies:      []Spec{{Kind: KindICMPFlood, Start: 3, Duration: 5, Rate: 200}},
			}
			return Generate(cfg)
		}},
		{"archive-sasser-day", func() *Result {
			arch := NewArchive(5)
			arch.Duration = 20
			arch.BaseRate = 120
			return arch.Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC))
		}},
	}
}

const goldenPath = "testdata/generate_golden.json"

// TestGenerateDeterminism is the generator's reproducibility contract: for
// every fixture config, the trace must be byte-identical across repeated
// runs and equal to the committed golden digest.
// The golden file makes any drift in generation output — however it is
// produced — a deliberate, reviewed fixture update (-update), never a silent
// side effect of a refactor.
func TestGenerateDeterminism(t *testing.T) {
	fixtures := goldenFixtures()

	got := make([]goldenRecord, 0, len(fixtures))
	for _, fx := range fixtures {
		ref := fx.gen()
		rec := goldenRecord{
			Name:        fx.name,
			Packets:     ref.Trace.Len(),
			TraceSHA256: trace.NewIndex(ref.Trace).Digest(),
			TruthEvents: len(ref.Truth),
		}
		for _, ev := range ref.Truth {
			rec.TruthPackets += ev.Packets
		}
		got = append(got, rec)

		res := fx.gen()
		if d := trace.NewIndex(res.Trace).Digest(); d != rec.TraceSHA256 {
			t.Errorf("%s: rerun: trace digest %s, want %s (%d vs %d packets)",
				fx.name, d[:12], rec.TraceSHA256[:12], res.Trace.Len(), rec.Packets)
		}
		if len(res.Truth) != rec.TruthEvents {
			t.Errorf("%s: rerun: %d truth events, want %d", fx.name, len(res.Truth), rec.TruthEvents)
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d records, fixtures produce %d (run -update after changing fixtures)", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("fixture %s drifted from golden:\n got %+v\nwant %+v\n(if the generation change is deliberate, refresh with -update)",
				got[i].Name, got[i], want[i])
		}
	}
}

// TestWindowSessionsPartition pins the multinomial window split: counts must
// sum to the session budget, depend only on (seed, sessions, windows), and
// actually vary across windows (a stratified equal split would smooth the
// background's temporal fluctuation and distort detector statistics).
func TestWindowSessionsPartition(t *testing.T) {
	a := windowSessions(11, 900, 16)
	b := windowSessions(11, 900, 16)
	total, varies := 0, false
	for w := range a {
		if a[w] != b[w] {
			t.Fatalf("window %d: count %d vs %d across runs", w, a[w], b[w])
		}
		total += a[w]
		if a[w] != a[0] {
			varies = true
		}
	}
	if total != 900 {
		t.Errorf("partition sums to %d, want 900", total)
	}
	if !varies {
		t.Error("multinomial partition produced a perfectly equal split (astronomically unlikely)")
	}
	if c := windowSessions(12, 900, 16); len(c) == len(a) {
		same := true
		for w := range a {
			if a[w] != c[w] {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced identical partitions")
		}
	}
}

// TestGenerateWindowsChangeBytes documents that Windows is part of the
// reproducibility contract: a different window count derives different
// streams and therefore different bytes.
func TestGenerateWindowsChangeBytes(t *testing.T) {
	mk := func(windows int) string {
		cfg := DefaultConfig(3)
		cfg.Duration = 10
		cfg.BackgroundRate = 100
		cfg.Windows = windows
		return trace.NewIndex(Generate(cfg).Trace).Digest()
	}
	if mk(4) == mk(8) {
		t.Error("Windows=4 and Windows=8 generated identical traces")
	}
	if mk(8) != mk(8) {
		t.Error("equal configs generated different traces")
	}
}
