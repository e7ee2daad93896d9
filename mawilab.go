// Package mawilab is a Go implementation of MAWILab (Fontugne, Borgnat,
// Abry, Fukuda — CoNEXT 2010): a methodology that combines diverse,
// independent network anomaly detectors into a single reliable labeling of
// backbone traffic.
//
// The pipeline has four steps (§1 of the paper):
//
//  1. several anomaly detectors analyze a trace and report alarms;
//  2. a graph-based similarity estimator groups alarms designating the
//     same traffic into communities, even across detectors operating at
//     different granularities (host, flow, packet, feature tuple);
//  3. a combiner classifies each community as anomalous or not — the best
//     unsupervised strategy being SCANN, built on correspondence analysis;
//  4. association rule mining condenses each community into concise
//     human-readable labels under the Anomalous / Suspicious / Notice /
//     Benign taxonomy.
//
// Quick start (batch — one materialized day):
//
//	day := mawilab.NewArchive(42).Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC))
//	labeling, err := mawilab.NewPipeline().Run(day.Trace)
//	if err != nil { ... }
//	for _, rep := range labeling.Reports {
//	    fmt.Println(rep.String())
//	}
//
// Streaming (unbounded packet stream, labelings per closed window):
//
//	p := mawilab.NewPipeline()
//	p.Stream = mawilab.StreamConfig{SegmentSeconds: 900, WindowSegments: 4, WindowStride: 1}
//	s := p.RunStream(ctx, packets) // packets <-chan mawilab.Packet, sorted by timestamp
//	for w := range s.Windows() {
//	    w.Labeling.WriteCSV(os.Stdout)
//	}
//	if err := s.Wait(); err != nil { ... }
//
// Both paths run the same engine: the ingest is chopped into sealed,
// index-only trace.Segments (the columnar trace.Index is the one packet
// representation past ingest, built by the one sequential
// trace.IndexBuilder), detectors run per segment, and the
// estimator/combiner/labeler run per sliding window of segments. Run is
// RunStream with the canonical batch boundary — the whole trace as one
// sealed segment, one window — which is why a stream chopped at that
// boundary reproduces the batch labeling bit-for-bit.
//
// The subpackages under internal/ implement every substrate from scratch:
// the four detectors (PCA, Gamma, Hough, KL), Louvain community mining,
// correspondence analysis, Apriori rule mining, a synthetic MAWI archive,
// and a pcap reader/writer.
package mawilab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"runtime"
	"sync"
	"time"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/detectors/suite"
	"mawilab/internal/mawigen"
	"mawilab/internal/parallel"
	"mawilab/internal/pcap"
	wirev1 "mawilab/internal/serve/v1"
	"mawilab/internal/trace"
)

// Re-exported types: the public API of the library. The aliases expose the
// internal implementations without widening the import graph for users.
type (
	// Trace is an in-memory packet trace.
	Trace = trace.Trace
	// Packet is one packet header record.
	Packet = trace.Packet
	// IPv4 is an IPv4 address.
	IPv4 = trace.IPv4
	// Filter selects traffic by header fields and time interval.
	Filter = trace.Filter
	// Granularity selects packet/uniflow/biflow traffic comparison.
	Granularity = trace.Granularity
	// Index is the immutable columnar view of a sorted packet sequence —
	// SoA packet columns, the canonical sorted flow table and two sorted
	// postings of its ids, every lookup a binary search; rows on demand via
	// PacketAt. The fused ingest path (DecodePcap) builds one straight from
	// a pcap stream with no intermediate Trace.
	Index = trace.Index
	// Segment is one sealed, immutable span of a packet stream, held as its
	// columnar index only — the unit of the streaming pipeline.
	Segment = trace.Segment
	// Alarm is one detector report.
	Alarm = core.Alarm
	// Detector is an anomaly detector with multiple configurations:
	// Name, NumConfigs and Detect(ix, config) are all a custom detector
	// needs to join Pipeline.Detectors.
	Detector = detectors.Detector
	// Preparer is the optional second half of the detector contract: a
	// Detector whose configurations share work computes it once per trace
	// in Prepare(ix) and answers each configuration from the Prepared it
	// returns. The pipeline then calls Prepare once and Decide once per
	// configuration instead of Detect once per configuration; the four
	// standard detectors do. A detector that does not implement it loses
	// nothing but that sharing.
	Preparer = detectors.Preparer
	// Prepared is a Preparer's configuration-independent view of one
	// Index: read-only after Prepare (Decide is safe for concurrent calls)
	// and valid only until that Index is released.
	Prepared = detectors.Prepared
	// Strategy is a combination strategy.
	Strategy = core.Strategy
	// Decision is a combiner verdict for one community.
	Decision = core.Decision
	// Label is the four-level traffic taxonomy.
	Label = core.Label
	// CommunityReport is the labeled record of one alarm community.
	CommunityReport = core.CommunityReport
	// EstimatorConfig parameterizes the similarity estimator.
	EstimatorConfig = core.EstimatorConfig
	// Archive is the synthetic MAWI archive model.
	Archive = mawigen.Archive
	// Event is a ground-truth anomaly record from the generator.
	Event = mawigen.Event
)

// Taxonomy labels (§5).
const (
	Benign     = core.Benign
	Notice     = core.Notice
	Suspicious = core.Suspicious
	Anomalous  = core.Anomalous
)

// Traffic granularities (§2.1.1).
const (
	GranPacket  = trace.GranPacket
	GranUniFlow = trace.GranUniFlow
	GranBiFlow  = trace.GranBiFlow
)

// NewFilter returns a match-all filter to be narrowed with the With*
// builders.
func NewFilter() Filter { return trace.NewFilter() }

// ParseIPv4 parses a dotted-quad address.
func ParseIPv4(s string) (IPv4, error) { return trace.ParseIPv4(s) }

// MakeIPv4 builds an address from octets.
func MakeIPv4(a, b, c, d byte) IPv4 { return trace.MakeIPv4(a, b, c, d) }

// StandardDetectors returns the paper's ensemble: PCA, Gamma, Hough and KL
// detectors, three configurations each.
func StandardDetectors() []Detector { return suite.Standard() }

// Strategies.
var (
	// Average accepts a community when the mean confidence exceeds 0.5.
	Average = core.NewAverage
	// Minimum accepts only unanimously supported communities.
	Minimum = core.NewMinimum
	// Maximum accepts any community one detector fully supports.
	Maximum = core.NewMaximum
	// SCANN is the paper's retained strategy (correspondence analysis).
	SCANN = func() Strategy { return core.NewSCANN() }
)

// NewArchive returns the synthetic MAWI archive model seeded
// deterministically.
func NewArchive(seed int64) *Archive { return mawigen.NewArchive(seed) }

// ReadPcap loads a classic pcap stream into a Trace. cmd/mawilab and the
// daemon ingest with DecodePcap instead; ReadPcap stays while cmd/mawibench,
// its last caller in this module, reads rows.
func ReadPcap(r io.Reader) (*Trace, error) { return pcap.ReadTrace(r) }

// WritePcap serializes a Trace, rows in their order, as the payload-stripped
// classic pcap stream EncodePcap writes: for a sorted trace it is the bytes
// of EncodePcap of the trace's index. A packet with a negative timestamp
// fails it with ErrUnsorted before anything is written.
func WritePcap(w io.Writer, tr *Trace) error { return pcap.WriteTrace(w, tr) }

// DecodePcap decodes a classic pcap stream straight into a columnar Index —
// the fused single-pass ingest path, with no intermediate Trace and pooled
// column buffers (call Index.Release when done to recycle them; it is the
// only constructor whose result Release recycles). It reads r through a
// 64 KiB buffer of its own — r itself when r is a bufio.Reader of at least
// 110 bytes — and parses each record where that buffer holds it. It reads
// header-only and full-frame captures alike, and its result is structurally
// identical to ReadPcap followed by index construction; like every other
// path it rejects streams violating the sorted trace model with
// ErrUnsorted. The daemon's upload path and cmd/mawilab -in run on it; see
// the README's "Raw speed" section for the ownership rules.
func DecodePcap(r io.Reader) (*Index, error) { return pcap.DecodeIndex(r) }

// EncodePcap serializes an Index as a payload-stripped classic pcap stream,
// the form MAWI publishes and the only form this module writes: every record
// captures at most the 54 header bytes a decoder reads (≤ 70 bytes per
// packet, 24 per file) and keeps the wire length as its original length. It
// decodes (DecodePcap, ReadPcap) to the same index with the same Digest as
// the pcap ix was decoded from. It is what the daemon stores per labeled
// trace.
func EncodePcap(w io.Writer, ix *Index) error { return pcap.WriteIndex(w, ix) }

// Segments chops an in-order packet stream into sealed trace segments of the
// given length in seconds (<= 0 selects the canonical batch boundary: one
// unbounded segment sealed at end of stream; a NaN, infinite or overflowing
// length yields ErrSegmentLength). It is the ingest substrate
// RunStream is built on, exposed for callers that want sealed segments
// without the labeling stages. workers is ignored — each segment's index is
// built sequentially as its packets arrive — and stays only because
// cmd/mawibench, frozen for this change, compiles against it; the next
// benchmark PR drops it.
func Segments(ctx context.Context, packets <-chan Packet, seconds float64, workers int) iter.Seq2[*Segment, error] {
	return trace.Segments(ctx, packets, seconds)
}

// SealTrace indexes a materialized trace as the canonical single sealed
// segment — the batch boundary Run chops at. An unsorted trace fails with
// ErrUnsorted. workers is ignored, and kept for the same reason as in
// Segments.
func SealTrace(ctx context.Context, tr *Trace, workers int) (*Segment, error) {
	return trace.SealTrace(ctx, tr)
}

// Pipeline is the ready-to-use MAWILab labeling pipeline.
type Pipeline struct {
	// Detectors is the ensemble to combine; defaults to
	// StandardDetectors(). Names must be unique — alarms, votes and
	// confidences are keyed by Detector.Name — and a repeated one fails
	// the run before anything is detected.
	Detectors []Detector
	// Estimator configures the similarity estimator; defaults to the
	// paper's retained settings (uniflow granularity, Simpson index,
	// Louvain).
	Estimator EstimatorConfig
	// Strategy is the combination strategy; defaults to SCANN.
	Strategy Strategy
	// RuleSupport is the Apriori minimum support for labeling (default
	// 0.2, the paper's s = 20%).
	RuleSupport float64
	// Workers bounds the goroutines of each fan-out inside a stage (the
	// detectors' prepare and decide fan-outs, alarm traffic extraction, the
	// rows of the similarity graph and community labeling; index
	// construction and Louvain community mining are sequential). 0 or 1
	// runs every fan-out inline; any value produces byte-identical output —
	// see Parallelism. It does not serialize RunStream's two stages, which
	// overlap at every value: under 1 a stream runs on two goroutines.
	Workers int
	// Stream configures the segmented ingest used by RunStream. The zero
	// value is the canonical batch boundary — one unbounded segment, one
	// window — under which RunStream reproduces Run bit-for-bit. Run and
	// RunContext always chop at the canonical boundary regardless of this
	// field; only RunStream honors it.
	Stream StreamConfig
	// Observe, when non-nil, is called with the wall-clock seconds spent in
	// each pipeline stage as it completes: StageIngest (segment sealing and
	// window index builds), StageDetect (one detector-ensemble pass over a
	// sealed segment), StageEstimate (similarity estimation over a window)
	// and StageLabel (combining plus community labeling of a window). It is
	// pure telemetry — the hook never influences the labeling, so the
	// determinism contract is unaffected — and is how mawilabd exports
	// per-stage latency histograms without wrapping the engine. Within one
	// run calls are sequential — RunStream's two stages take turns calling
	// it, so a call may report a stage that overlapped another stage in time;
	// a Pipeline shared across concurrent runs needs an Observe that is safe
	// for concurrent use.
	Observe func(stage Stage, seconds float64)
}

// Stage names one observable pipeline stage for the Observe hook.
type Stage string

// The four observable stages of the labeling engine.
const (
	// StageIngest covers building a trace/segment/window columnar index.
	StageIngest Stage = "ingest"
	// StageDetect covers one detector-ensemble pass over a sealed segment.
	StageDetect Stage = "detect"
	// StageEstimate covers similarity estimation (extract, graph, Louvain).
	StageEstimate Stage = "estimate"
	// StageLabel covers combining and community labeling (rules, heuristics).
	StageLabel Stage = "label"
)

// Typed configuration errors returned by StreamConfig.Validate and
// Pipeline.Validate, matchable with errors.Is.
var (
	// ErrSegmentSeconds rejects a negative or non-finite SegmentSeconds
	// (0 selects the canonical batch boundary and is valid).
	ErrSegmentSeconds = errors.New("mawilab: StreamConfig.SegmentSeconds must be >= 0 and finite")
	// ErrWindowSegments rejects a negative WindowSegments (0 means 1).
	ErrWindowSegments = errors.New("mawilab: StreamConfig.WindowSegments must be >= 0")
	// ErrWindowStride rejects a negative WindowStride (0 means tumbling:
	// stride == window).
	ErrWindowStride = errors.New("mawilab: StreamConfig.WindowStride must be >= 0")
	// ErrStrideExceedsWindow rejects a stride larger than the window, which
	// would silently skip segments between labelings.
	ErrStrideExceedsWindow = errors.New("mawilab: StreamConfig.WindowStride must not exceed the window")
	// ErrWorkers rejects a negative Pipeline.Workers (0 means 1, every
	// fan-out inline; Parallelism normalizes <= 0 to GOMAXPROCS).
	ErrWorkers = errors.New("mawilab: Pipeline.Workers must be >= 0")
	// ErrRuleSupport rejects a Pipeline.RuleSupport that is negative, above
	// 1 or NaN (0 selects the paper's s = 20% and is valid).
	ErrRuleSupport = errors.New("mawilab: Pipeline.RuleSupport must be 0 or in (0,1]")
)

// Input errors of the trace layer, matchable with errors.Is.
var (
	// ErrUnsorted rejects packets out of timestamp order or with a negative
	// timestamp, from DecodePcap, SealTrace, the Run entry points and
	// RunStream; WritePcap rejects a negative timestamp with it.
	ErrUnsorted = trace.ErrUnsorted
	// ErrSegmentLength rejects a NaN, infinite or overflowing segment length
	// passed to Segments.
	ErrSegmentLength = trace.ErrSegmentLength
)

// Validate checks the stream configuration and returns a typed error for
// the first invalid field: a negative or non-finite SegmentSeconds
// (ErrSegmentSeconds), a negative WindowSegments (ErrWindowSegments), a
// negative WindowStride (ErrWindowStride), or a stride larger than the
// effective window (ErrStrideExceedsWindow) — values that earlier versions
// silently clamped. The zero value is valid: it is the canonical batch
// boundary. RunStream and the mawilabd config loader call this before any
// work starts, so a bad config fails fast instead of surfacing mid-stream.
func (c StreamConfig) Validate() error {
	if c.SegmentSeconds < 0 || math.IsNaN(c.SegmentSeconds) || math.IsInf(c.SegmentSeconds, 0) {
		return fmt.Errorf("%w: got %v", ErrSegmentSeconds, c.SegmentSeconds)
	}
	if c.WindowSegments < 0 {
		return fmt.Errorf("%w: got %d", ErrWindowSegments, c.WindowSegments)
	}
	if c.WindowStride < 0 {
		return fmt.Errorf("%w: got %d", ErrWindowStride, c.WindowStride)
	}
	if c.WindowStride > c.window() {
		return fmt.Errorf("%w: stride %d > window %d", ErrStrideExceedsWindow, c.WindowStride, c.window())
	}
	return nil
}

// Validate checks the pipeline configuration: a negative Workers count
// (ErrWorkers), a RuleSupport outside (0,1] other than the defaulting 0
// (ErrRuleSupport) and the embedded StreamConfig (see StreamConfig.Validate).
// Every entry point checks the first two before it indexes anything;
// RunStream checks the StreamConfig too, and the batch entry points ignore it.
func (p *Pipeline) Validate() error {
	if _, err := p.labeler(nil); err != nil {
		return err
	}
	return p.Stream.Validate()
}

// engine is one run of the pipeline with its configuration resolved once,
// before anything is indexed; the stages read it instead of checking again.
type engine struct {
	*Pipeline
	totals  map[string]int // configurations per detector name
	workers int            // >= 1
	support float64        // Apriori's minimum support

	observeMu sync.Mutex // serializes Observe calls from a stream's two stages
}

// observe times one stage when the hook is installed; f's error passes
// through unchanged. Only the hook call holds observeMu, not the stage.
func (e *engine) observe(stage Stage, f func() error) error {
	if e.Observe == nil {
		return f()
	}
	start := time.Now() //mawilint:allow wallclock — observability hook only: the measured latency feeds metrics, never a labeling
	err := f()
	seconds := time.Since(start).Seconds() //mawilint:allow wallclock — observability hook only: the measured latency feeds metrics, never a labeling
	e.observeMu.Lock()
	defer e.observeMu.Unlock()
	e.Observe(stage, seconds)
	return err
}

// engine resolves the detector totals (a repeated name fails), then Workers
// and RuleSupport.
func (p *Pipeline) engine() (*engine, error) {
	totals, err := detectors.Totals(p.Detectors)
	if err != nil {
		return nil, err
	}
	return p.labeler(totals)
}

// labeler resolves Workers (0 means 1) and RuleSupport (0 selects the paper's
// s = 20%) for labeling the alarms of detectors with the given totals.
func (p *Pipeline) labeler(totals map[string]int) (*engine, error) {
	if p.Workers < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrWorkers, p.Workers)
	}
	support := p.RuleSupport
	if support == 0 {
		support = core.DefaultReportOptions().RuleSupport
	} else if !(support > 0 && support <= 1) {
		return nil, fmt.Errorf("%w: got %v", ErrRuleSupport, support)
	}
	return &engine{Pipeline: p, totals: totals, workers: max(p.Workers, 1), support: support}, nil
}

// StreamConfig parameterizes segmented streaming ingest (Pipeline.RunStream).
type StreamConfig struct {
	// SegmentSeconds is the sealed-segment length: segment k spans
	// [k*S, (k+1)*S) seconds of stream time, and its index is complete the
	// moment it seals. <= 0 selects the canonical batch boundary (one
	// unbounded segment, sealed at end of stream).
	SegmentSeconds float64
	// WindowSegments is the labeling window length in sealed segments:
	// the estimator, combiner and labeler run over the alarms of the last
	// WindowSegments segments each time the window closes. <= 0 means 1.
	WindowSegments int
	// WindowStride is how many segments the window advances per labeling:
	// stride == WindowSegments gives tumbling windows, a smaller stride
	// gives overlapping sliding windows. 0 means WindowSegments (tumbling);
	// negative values and strides larger than the window are invalid — see
	// Validate, which RunStream calls before any work starts.
	WindowStride int
}

// window returns the effective window length (>= 1).
func (c StreamConfig) window() int {
	if c.WindowSegments <= 0 {
		return 1
	}
	return c.WindowSegments
}

// stride returns the effective stride in [1, window].
func (c StreamConfig) stride() int {
	w := c.window()
	if c.WindowStride <= 0 || c.WindowStride > w {
		return w
	}
	return c.WindowStride
}

// Parallelism sets the pipeline's worker count and returns p for chaining.
// n <= 0 selects runtime.GOMAXPROCS(0); n == 1 runs every fan-out inline
// (RunStream still overlaps its two stages, see there). The
// four detectors' prepares, then their twelve per-configuration decisions,
// the similarity estimator's traffic extraction and graph rows and the
// per-community labeling are dispatched across a bounded worker pool, and
// their outputs are merged in a fixed (detector, config, slot) order, so the
// labeling is byte-identical at every worker count. Index construction and Louvain
// community mining are sequential at every setting: at the sizes this
// pipeline runs, fanning them out costs more than it saves.
func (p *Pipeline) Parallelism(n int) *Pipeline {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p.Workers = n
	return p
}

// NewPipeline returns the pipeline with the paper's retained
// configuration.
func NewPipeline() *Pipeline {
	return &Pipeline{
		Detectors:   StandardDetectors(),
		Estimator:   core.DefaultEstimatorConfig(),
		Strategy:    core.NewSCANN(),
		RuleSupport: 0.2,
	}
}

// Labeling is the pipeline output for one trace.
type Labeling struct {
	// Alarms are all detector reports fed into the similarity estimator.
	Alarms []Alarm
	// Result is the similarity estimator output (graph and communities).
	Result *core.Result
	// Decisions holds the strategy's verdict per community.
	Decisions []Decision
	// Reports carry the final labels, rules and heuristics per community.
	Reports []CommunityReport
}

// Run executes the full pipeline on a trace: detect, estimate, combine,
// label.
func (p *Pipeline) Run(tr *Trace) (*Labeling, error) {
	return p.RunContext(context.Background(), tr)
}

// RunContext is Run with cancellation: the detector fan-out and the
// community-labeling stage stop scheduling new work once ctx is cancelled.
// It runs the streaming engine's two stages on the canonical batch boundary:
// the materialized trace is sealed as one segment spanning the whole trace,
// indexed exactly once, the ensemble detects over it, and that segment is
// labeled as the one window it is. Batch and stream therefore share one
// engine, and a stream chopped at the canonical boundary reproduces this
// labeling bit-for-bit. tr must be sorted by timestamp (Trace.Sort) with no
// negative timestamps; otherwise the run fails with ErrUnsorted — after the
// configuration errors, which every entry point checks before indexing.
func (p *Pipeline) RunContext(ctx context.Context, tr *Trace) (*Labeling, error) {
	e, err := p.engine()
	if err != nil {
		return nil, err
	}
	var seg *Segment
	if err := e.observe(StageIngest, func() error {
		seg, err = trace.SealTrace(ctx, tr)
		return err
	}); err != nil {
		return nil, err
	}
	return e.batch(ctx, seg.Index)
}

// RunIndex executes the pipeline over a pre-built columnar index — the
// zero-copy serving path: the daemon decodes each upload straight into an
// Index (DecodePcap) and labels it here, so no []Packet is ever
// materialized. The labeling is byte-identical to Run over the trace the
// index was decoded from (same engine, same canonical one-segment window).
// The caller keeps ownership of ix: release it, if pooled, only after the
// labeling and anything derived from ix are no longer in use.
func (p *Pipeline) RunIndex(ctx context.Context, ix *Index) (*Labeling, error) {
	e, err := p.engine()
	if err != nil {
		return nil, err
	}
	return e.batch(ctx, ix)
}

// RunAlarms executes the estimator+combiner+labeler on externally produced
// alarms — the extension point the paper highlights in §6 for integrating
// new detectors or traffic-classifier annotations. totals maps each
// detector name to its number of configurations. Like the batch entry
// points it checks the configuration, then seals the trace as the canonical
// segment and resolves the alarms against that segment's index.
func (p *Pipeline) RunAlarms(tr *Trace, alarms []Alarm, totals map[string]int) (*Labeling, error) {
	e, err := p.labeler(totals)
	if err != nil {
		return nil, err
	}
	seg, err := trace.SealTrace(context.Background(), tr)
	if err != nil {
		return nil, err
	}
	return e.label(context.Background(), seg.Index, nil, []*segmentRun{{seg: seg, alarms: alarms}})
}

// WindowLabeling is one streaming output: the labeling of one closed window
// of sealed segments.
type WindowLabeling struct {
	// Window is the 0-based emission order of the window.
	Window int
	// Start and End bound the window's stream time in seconds — the first
	// segment's Start to the last segment's End ([0,+Inf) for the
	// canonical batch window).
	Start, End float64
	// Segments are the window's sealed segments, oldest first.
	Segments []*Segment
	// Index holds the window's packets — the segments' packets in stream
	// order; for a one-segment window it is the segment's own index. The
	// window's alarm traffic is in its ids: Labeling packet and flow
	// indices point into it (rows via PacketAt), its Digest is the digest
	// of the window's packets, and it is the Labeling's Result.Index.
	Index *Index
	// Labeling is the full pipeline output for the window.
	Labeling *Labeling
}

// Stream is a running segmented pipeline execution started by RunStream.
type Stream struct {
	windows chan *WindowLabeling
	done    chan struct{}
	err     error
}

// Windows returns the channel of window labelings, emitted as windows
// close. The channel closes when the packet stream ends or the run fails;
// consumers must drain it (or cancel the stream's context) and then call
// Wait for the terminal error.
func (s *Stream) Windows() <-chan *WindowLabeling { return s.windows }

// Wait blocks until the stream has finished — after Windows has closed —
// and returns the terminal error, if any. Call it after draining Windows;
// calling it first without cancelling the context can deadlock, since the
// engine blocks handing a window to a consumer that never reads.
func (s *Stream) Wait() error {
	<-s.done
	return s.err
}

// RunStream executes the pipeline over an unbounded, timestamp-sorted
// packet stream, the production ingest path: packets accumulate in an open
// segment's index builder, each segment seals when the stream crosses a
// p.Stream.SegmentSeconds grid boundary, the
// detector ensemble runs per sealed segment, and the similarity estimator,
// combiner and labeler run over a sliding window of the last
// p.Stream.WindowSegments segments, emitting a WindowLabeling each time the
// window closes — instead of once per materialized day. The final partial
// segment and window are sealed and labeled when the channel closes. A bad
// configuration fails the stream before any packet is read, and a cancelled
// ctx ends it before the next packet is taken from the channel; so does a
// channel closed after ctx was cancelled, which seals nothing more.
//
// The stream runs in two stages at every Workers value: one seals the next
// segment and runs the detectors over it while the other labels and emits
// the current window, joined by an unbuffered handoff, so detection runs at
// most one segment ahead and a stream holds its window plus two segments.
// Workers bounds each stage's fan-outs. The first error either stage meets
// stops both and is returned by Wait unchanged, after the windows before it
// were emitted.
//
// A window pays once per segment, not once per window, for its alarms'
// traffic: each segment's alarms are matched once against each segment of a
// window holding both (a timed alarm only against the segments its interval
// overlaps), kept while the segment stays in the window, and carried into
// each window's index through trace.WindowIndex's flow-id remaps
// (core.WindowSets) — the sets every alarm would get from extraction
// against the window index, with the matching done once.
//
// Determinism: the same packet stream under the same StreamConfig yields
// byte-identical window labelings at every worker count, and a stream
// chopped at the canonical boundary (the zero StreamConfig) reproduces
// Run's batch labeling bit-for-bit.
func (p *Pipeline) RunStream(ctx context.Context, packets <-chan Packet) *Stream {
	s := &Stream{windows: make(chan *WindowLabeling), done: make(chan struct{})}
	e, err := p.engine()
	if err == nil {
		err = p.Stream.Validate()
	}
	if err != nil {
		s.err = err
		close(s.windows)
		close(s.done)
		return s
	}
	go func() { //mawilint:allow baregoroutine — RunStream's single structured producer: window order is fixed by the channel FIFO, lifecycle by s.done and ctx
		defer close(s.done)
		defer close(s.windows)
		s.err = e.runSegments(ctx, packets, p.Stream.SegmentSeconds, p.Stream.window(), p.Stream.stride(), func(w *WindowLabeling) error {
			select {
			case s.windows <- w:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	return s
}

// batch labels one canonical segment's index as the one window it is:
// detect, then label.
func (e *engine) batch(ctx context.Context, ix *Index) (*Labeling, error) {
	alarms, err := e.detect(ctx, ix)
	if err != nil {
		return nil, err
	}
	return e.label(ctx, ix, nil, []*segmentRun{{seg: &Segment{Index: ix}, alarms: alarms}})
}

// detect runs the detector ensemble over one sealed segment's index.
func (e *engine) detect(ctx context.Context, ix *Index) (alarms []Alarm, err error) {
	err = e.observe(StageDetect, func() error {
		alarms, _, err = detectors.DetectAllContext(ctx, ix, e.Detectors, e.workers)
		return err
	})
	return alarms, err
}

// segmentRun pairs a sealed segment with its detector-ensemble output, and
// carries that output's traffic while the segment is in the window.
type segmentRun struct {
	seg    *Segment
	alarms []Alarm
	// traffic[seq] is the alarms' traffic in the window segment with that
	// Seq (core.SegmentSets), resolved by the first window that holds both.
	traffic map[int][]*core.TrafficSet
}

// runSegments is the streaming engine, two stages joined by an unbuffered
// handoff. Stage A, one task of a parallel.Pool, seals segments from packets
// and detects each; stage B, the caller, keeps a sliding window of the last
// `window` segments, and each time the window fills labels the window's
// accumulated alarms and emits the labeling, then advances the window by
// `stride` segments. So the next segment is sealed and detected while the
// current window is labeled, and detection runs at most one segment ahead.
// When the segment stream ends with segments no emitted window has covered,
// the final partial window is labeled too. The first error — a detector
// failure, a cancelled context, an out-of-order packet upstream — stops both
// stages and is returned unchanged, after the windows before it.
func (e *engine) runSegments(ctx context.Context, packets <-chan Packet, seconds float64, window, stride int, emit func(*WindowLabeling) error) error {
	ctx, cancel := context.WithCancel(ctx)
	handoff := make(chan *segmentRun)
	detect := parallel.NewPool(ctx, 1)
	defer func() {
		cancel() // stage A stops at its next packet or handoff
		detect.Wait()
	}()
	detect.Go(func(ctx context.Context) error {
		defer close(handoff)
		for seg, err := range trace.Segments(ctx, packets, seconds) {
			if err != nil {
				return err
			}
			alarms, err := e.detect(ctx, seg.Index)
			if err != nil {
				return err
			}
			select {
			case handoff <- &segmentRun{seg: seg, alarms: alarms}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	})
	var (
		pending []*segmentRun
		fresh   int // segments not yet covered by an emitted window
		wi      int
	)
	label := func() error {
		w, err := e.labelWindow(ctx, wi, pending)
		if err != nil {
			return err
		}
		wi++
		return emit(w)
	}
	for {
		var (
			run *segmentRun
			ok  bool
		)
		// ctx.Done() too: a pool under a cancelled context drops the task, and
		// the handoff never closes.
		select {
		case run, ok = <-handoff:
		case <-ctx.Done():
		}
		if !ok {
			break
		}
		pending = append(pending, run)
		fresh++
		if len(pending) == window {
			if err := label(); err != nil {
				return err
			}
			pending = append(pending[:0:0], pending[stride:]...)
			fresh = 0
		}
	}
	if err := detect.Wait(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil { // the loop left on ctx.Done()
		return err
	}
	if fresh > 0 && len(pending) > 0 {
		return label()
	}
	return nil
}

// labelWindow runs estimate → combine → label over one window of sealed
// segments. A one-segment window reuses the segment's index as-is; a
// multi-segment window gets trace.WindowIndex over its segments, and the
// remaps that carry each segment's alarm traffic into it.
func (e *engine) labelWindow(ctx context.Context, wi int, runs []*segmentRun) (*WindowLabeling, error) {
	segs := make([]*Segment, len(runs))
	for i, r := range runs {
		segs[i] = r.seg
	}
	ix := segs[0].Index
	var remaps [][]int32
	if len(segs) > 1 {
		if err := e.observe(StageIngest, func() error {
			var err error
			ix, remaps, err = trace.WindowIndex(ctx, segs)
			return err
		}); err != nil {
			return nil, err
		}
	}
	l, err := e.label(ctx, ix, remaps, runs)
	if err != nil {
		return nil, err
	}
	return &WindowLabeling{Window: wi, Start: segs[0].Start, End: segs[len(segs)-1].End, Segments: segs, Index: ix, Labeling: l}, nil
}

// label runs estimate → combine → label over the alarms of runs, whose
// segments make up the index ix; remaps are trace.WindowIndex's, nil when ix
// is the one run's own index.
func (e *engine) label(ctx context.Context, ix *trace.Index, remaps [][]int32, runs []*segmentRun) (*Labeling, error) {
	var alarms []Alarm
	for _, r := range runs {
		alarms = append(alarms, r.alarms...)
	}
	var res *core.Result
	if err := e.observe(StageEstimate, func() error {
		sets, err := e.windowSets(ctx, ix, remaps, runs)
		if err != nil {
			return err
		}
		res, err = core.EstimateSets(ctx, ix, alarms, sets, e.Estimator, e.workers)
		return err
	}); err != nil {
		return nil, err
	}
	var (
		dec     []Decision
		reports []CommunityReport
	)
	if err := e.observe(StageLabel, func() error {
		var err error
		dec, err = e.Strategy.Classify(res, res.Confidences(e.totals))
		if err != nil {
			return err
		}
		reports, err = core.BuildReportsContext(ctx, res, dec, core.ReportOptions{RuleSupport: e.support}, e.workers)
		return err
	}); err != nil {
		return nil, err
	}
	return &Labeling{Alarms: alarms, Result: res, Decisions: dec, Reports: reports}, nil
}

// windowSets resolves the traffic of the window's alarms over ix. Each run's
// alarms are matched once against each segment of the window, and the result
// is kept in the run while it stays in the window (under stride 1 a window
// matches the new segment's alarms against every segment, and the older
// alarms against the new segment only); core.WindowSets then merges the
// per-segment sets through the remaps.
func (e *engine) windowSets(ctx context.Context, ix *trace.Index, remaps [][]int32, runs []*segmentRun) ([]*core.TrafficSet, error) {
	g := e.Estimator.Granularity
	parts := make([]core.Part, len(runs))
	offset := 0
	for k, sr := range runs {
		var col []*core.TrafficSet
		for _, ar := range runs {
			sets, ok := ar.traffic[sr.seg.Seq]
			if !ok {
				var err error
				if sets, err = core.SegmentSets(ctx, sr.seg.Index, ar.alarms, g, e.workers); err != nil {
					return nil, err
				}
				if ar.traffic == nil {
					ar.traffic = make(map[int][]*core.TrafficSet)
				}
				ar.traffic[sr.seg.Seq] = sets
			}
			col = append(col, sets...)
		}
		parts[k] = core.Part{Sets: col, Offset: offset}
		if remaps != nil {
			parts[k].Remap = remaps[k]
		}
		offset += sr.seg.Len()
	}
	return core.WindowSets(ctx, ix, g, parts, e.workers)
}

// Anomalies returns the reports labeled Anomalous, the records published in
// the MAWILab database.
func (l *Labeling) Anomalies() []CommunityReport {
	var out []CommunityReport
	for _, r := range l.Reports {
		if r.Label == core.Anomalous {
			out = append(out, r)
		}
	}
	return out
}

// WriteCSV emits the labeling in the MAWILab database format: one row per
// community with its taxonomy label, best rule 4-tuple, heuristic
// category and size. The byte layout is the v1 wire schema
// (internal/serve/v1) — the same encoder mawilabd serves, so CLI and HTTP
// output are byte-identical for the same trace.
func (l *Labeling) WriteCSV(w io.Writer) error {
	return wirev1.WriteCSV(w, l.Reports)
}

// WriteADMD emits the labeling as an admd XML document, the format of the
// published MAWILab database. Its time spans come from the index the
// labeling was computed on (Result.Index): the whole trace in batch mode,
// the window in stream mode. A Labeling without a Result writes no spans.
// Like WriteCSV it encodes through the shared v1 wire schema.
func (l *Labeling) WriteADMD(w io.Writer, traceName string) error {
	var ix *Index
	if l.Result != nil {
		ix = l.Result.Index()
	}
	return wirev1.WriteADMD(w, traceName, ix, l.Reports)
}

// GroundTruthEval scores a labeling against generator ground truth: an
// event counts as detected when an Anomalous community's traffic overlaps
// it by at least minPackets packets. It returns detected events and the
// total — the benchmark usage MAWILab was built for.
func GroundTruthEval(tr *Trace, l *Labeling, truth []Event, minPackets int) (detected, total int) {
	if minPackets <= 0 {
		minPackets = 10
	}
	for i := range truth {
		ev := &truth[i]
		total++
		for _, rep := range l.Reports {
			if rep.Label != core.Anomalous {
				continue
			}
			c := &l.Result.Communities[rep.Community]
			hits := 0
			for _, pi := range c.Traffic.Packets {
				if ev.Matches(&tr.Packets[pi]) {
					hits++
					if hits >= minPackets {
						break
					}
				}
			}
			if hits >= minPackets {
				detected++
				break
			}
		}
	}
	return detected, total
}

// Date is a small convenience for building archive dates.
func Date(year int, month time.Month, day int) time.Time {
	return time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
}
