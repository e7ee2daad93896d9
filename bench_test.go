package mawilab

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus component micro-benches and the
// ablations called out in DESIGN.md. Figure benches run a scaled-down
// experiment per iteration and report the headline quantity as a custom
// metric, so `go test -bench=.` both times the harness and validates the
// reproduced shape; cmd/experiments prints the full series.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/detectors/suite"
	"mawilab/internal/graphx"
	"mawilab/internal/heuristics"
	"mawilab/internal/linalg"
	"mawilab/internal/mawigen"
	"mawilab/internal/parallel"
	"mawilab/internal/pcap"
	"mawilab/internal/radix"
	"mawilab/internal/simgraph"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// benchArchive returns a reduced-scale archive for bounded bench times.
func benchArchive() *mawigen.Archive {
	arch := mawigen.NewArchive(2010)
	arch.Duration = 45
	arch.BaseRate = 250
	return arch
}

// --- Table 1 -------------------------------------------------------------

// BenchmarkTable1 measures the heuristics classifying every community of an
// archive day.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	day := benchArchive().Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC))
	l, err := NewPipeline().Run(day.Trace)
	if err != nil {
		b.Fatal(err)
	}
	ix := l.Result.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attacks := 0
		for _, rep := range l.Reports {
			c := &l.Result.Communities[rep.Community]
			cls, _ := heuristics.ClassifyPackets(ix, c.Traffic.Packets)
			if cls == heuristics.Attack {
				attacks++
			}
		}
		if attacks == 0 {
			b.Fatal("no attacks classified on a Sasser-era day")
		}
	}
}

// --- Component benches ---------------------------------------------------

// BenchmarkGenerateDay measures synthetic archive-day generation: one
// sequential loop over the background windows into rows sized once for the
// packet budget, then the anomaly injections and the timestamp sort, a byte
// radix sort linear in the packets. BenchmarkGenerateDayStream times days
// thirteen times longer, where a sort worse than linear would show.
func BenchmarkGenerateDay(b *testing.B) {
	benchGenerateDays(b, benchArchive())
}

// BenchmarkGenerateDayStream generates days of the shape cmd/mawibench's
// stream_sliding corpus labels: 600 s at a base rate of 300 pps, about
// 0.27 M packets a day.
func BenchmarkGenerateDayStream(b *testing.B) {
	arch := benchArchive()
	arch.Duration, arch.BaseRate = 600, 300
	benchGenerateDays(b, arch)
}

// benchGenerateDays generates one archive day per iteration, a day apart.
func benchGenerateDays(b *testing.B, arch *mawigen.Archive) {
	b.ReportAllocs()
	d := time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		res := arch.Day(d.AddDate(0, 0, i%300))
		if res.Trace.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// benchWorkerCounts returns the worker-pool sizes exercised by the scaling
// benches: sequential, 4 (the CI speedup gate), and every core.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// benchTrace builds one fixed trace for detector benches.
func benchTrace(b testing.TB) *trace.Trace {
	b.Helper()
	return benchArchive().Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC)).Trace
}

// benchIndex builds the shared columnar index of the bench trace, as the
// pipeline does once per day.
func benchIndex(b testing.TB) *trace.Index {
	b.Helper()
	return trace.NewIndex(benchTrace(b))
}

// BenchmarkDetectors times each detector's optimal configuration over the
// shared trace index (built once, outside the timed loop, as in the
// pipeline).
func BenchmarkDetectors(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	for _, d := range suite.Standard() {
		d := d
		b.Run(d.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Detect(ix, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectAll times the detector layer as the pipeline runs it — the
// twelve outputs of detectors.DetectAllContext over the shared bench index,
// four prepares then twelve decisions — sequentially and on four workers.
// The alarms are identical at every setting
// (TestDetectAllMatchesPerConfigDetect), so the ns/op ratio is what the
// prepare/decide fan-out buys.
func BenchmarkDetectAll(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	dets := suite.Standard()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := detectors.DetectAllContext(context.Background(), ix, dets, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchStreamDay generates the 2004-05-10 archive day in the shape of
// cmd/mawibench's stream_sliding corpus (300 pps base rate), seconds long.
func benchStreamDay(seconds float64) *trace.Trace {
	arch := mawigen.NewArchive(2010)
	arch.Duration, arch.BaseRate = seconds, 300
	return arch.Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC)).Trace
}

// benchStreamedSegments seals one 600 s archive day into the 15 s segments
// RunStream would: 40 of them, each keeping stream time.
func benchStreamedSegments(b *testing.B) []*trace.Segment {
	b.Helper()
	tr := benchStreamDay(600)
	w := trace.NewSegmentWriter(context.Background(), 15)
	var segs []*trace.Segment
	keep := func(seg *trace.Segment, err error) {
		if err != nil {
			b.Fatal(err)
		}
		if seg != nil {
			segs = append(segs, seg)
		}
	}
	for _, p := range tr.Packets {
		keep(w.Append(p))
	}
	keep(w.Close())
	if len(segs) != 40 {
		b.Fatalf("sealed %d segments, want 40", len(segs))
	}
	return segs
}

// BenchmarkDetectAllSegment times the detector layer on what RunStream feeds
// it: the first and the last sealed 15 s segment of one streamed 600 s day,
// sequentially. The two hold like packet counts. A segment keeps stream
// time, so seq 39 sits behind 585 s of empty bins. PCA, Gamma and Hough size
// their work by the bins the segment occupies; what is left of the gap
// between the rows is KL's per-bin series from 0 s and the extra alarms the
// empty bins still cause in PCA's thresholds.
func BenchmarkDetectAllSegment(b *testing.B) {
	b.ReportAllocs()
	segs := benchStreamedSegments(b)
	dets := suite.Standard()
	for _, seq := range []int{0, 39} {
		ix := segs[seq].Index
		b.Run(fmt.Sprintf("seq=%d", seq), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := detectors.DetectAllContext(context.Background(), ix, dets, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSegments prices stream ingest per packet over one 600 s streamed
// day, as ns/pkt: chan=64 drains trace.Segments fed through a 64-slot channel
// by a goroutine that selects on a cancellable context, as cmd/mawibench's
// stream_sliding feeder does; writer appends the same packets straight to a
// SegmentWriter, the sealing alone. Their difference is the channel hand-off.
func BenchmarkSegments(b *testing.B) {
	b.ReportAllocs()
	pkts := benchStreamDay(600).Packets
	perPacket := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
	}
	b.Run("chan=64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			ch := make(chan Packet, 64)
			pool := parallel.NewPool(ctx, 1)
			pool.Go(func(ctx context.Context) error {
				defer close(ch)
				for _, p := range pkts {
					select {
					case ch <- p:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
				return nil
			})
			for _, err := range trace.Segments(ctx, ch, 15) {
				if err != nil {
					b.Fatal(err)
				}
			}
			cancel()
			if err := pool.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		perPacket(b)
	})
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := trace.NewSegmentWriter(context.Background(), 15)
			for _, p := range pkts {
				if _, err := w.Append(p); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		perPacket(b)
	})
}

// BenchmarkWindowIndex times the index of a four-segment window — what
// RunStream builds once per stride — over the last four sealed segments of
// the streamed day: four bulk appends and one Finish, and the remaps that
// carry each segment's alarm traffic into the window.
func BenchmarkWindowIndex(b *testing.B) {
	b.ReportAllocs()
	segs := benchStreamedSegments(b)[36:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.WindowIndex(context.Background(), segs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigenSym times the symmetric eigensolver on the covariance PCA
// hands it per sketch: 32 sketch bins over a 15-row (one segment, rank 14)
// and a 60-row (one batch day) standardized matrix.
func BenchmarkEigenSym(b *testing.B) {
	b.ReportAllocs()
	for _, rows := range []int{15, 60} {
		rng := rand.New(rand.NewSource(int64(rows)))
		m := linalg.NewMatrix(rows, 32)
		for i := range m.Data {
			m.Data[i] = float64(rng.Intn(40))
		}
		for j := 0; j < m.Cols; j++ { // centre each column
			var sum float64
			for i := 0; i < rows; i++ {
				sum += m.At(i, j)
			}
			mean := sum / float64(rows)
			for i := 0; i < rows; i++ {
				m.Set(i, j, m.At(i, j)-mean)
			}
		}
		cov := m.Gram()
		for i := range cov.Data {
			cov.Data[i] /= float64(rows - 1)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := linalg.EigenSym(cov); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectorsPrepare times each standard detector's
// configuration-independent half over the shared bench index: what
// DetectAllContext pays once per detector per trace.
func BenchmarkDetectorsPrepare(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	for _, d := range suite.Standard() {
		p := d.(detectors.Preparer)
		b.Run(d.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Prepare(ix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectorsDecide times each standard detector's per-configuration
// half: all of its configurations decided from one prepared state (built
// outside the timed loop). One op is 64 such rounds: for gamma and kl a
// round is a threshold filter taking microseconds, which the bench gate's
// -benchtime=5x could not tell from timer noise.
func BenchmarkDetectorsDecide(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	for _, d := range suite.Standard() {
		prepared, err := d.(detectors.Preparer).Prepare(ix)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for round := 0; round < 64; round++ {
					for c := 0; c < d.NumConfigs(); c++ {
						if _, err := prepared.Decide(c); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkEstimate times the similarity estimator on a full ensemble
// output.
func BenchmarkEstimate(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, _, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultEstimatorConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateContext(context.Background(), ix, alarms, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func detectAllForBench(ix *trace.Index) ([]core.Alarm, map[string]int, error) {
	dets := suite.Standard()
	var alarms []core.Alarm
	totals := map[string]int{}
	for _, d := range dets {
		totals[d.Name()] = d.NumConfigs()
		for c := 0; c < d.NumConfigs(); c++ {
			out, err := d.Detect(ix, c)
			if err != nil {
				return nil, nil, err
			}
			alarms = append(alarms, out...)
		}
	}
	return alarms, totals, nil
}

// BenchmarkTraceIndex measures the shared columnar index build — columns,
// canonical flow table with packet runs, the two sorted postings —
// from a materialized trace: trace.NewIndex, the detached IndexBuilder path
// Run, SealTrace and the figure harnesses pay once per day. The builder is
// sequential, so there is one row.
func BenchmarkTraceIndex(b *testing.B) {
	b.ReportAllocs()
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := trace.NewIndex(tr); ix.Len() != tr.Len() {
			b.Fatal("bad index")
		}
	}
}

// BenchmarkExtract measures per-alarm traffic extraction through the
// index's sorted postings — the path that replaced the O(alarms × flows)
// full-table scan — fanning the ensemble's alarms out across several
// worker-pool sizes, exactly as core.EstimateContext does.
func BenchmarkExtract(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, _, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	if len(alarms) == 0 {
		b.Fatal("no alarms to extract")
	}
	ext := core.NewExtractor(ix, trace.GranUniFlow)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := parallel.ForEach(context.Background(), len(alarms), workers, func(_ context.Context, ai int) error {
					if ts := ext.Extract(&alarms[ai]); ts == nil {
						return fmt.Errorf("alarm %d: nil traffic set", ai)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnion times the step between community mining and labeling: every
// community of the bench day's estimate has its members' traffic sets merged
// by Extractor.Union into sorted flow ids, their keys, and the sorted packets
// those flows carry. It is sequential inside EstimateContext, so there is
// one row.
func BenchmarkUnion(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, _, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultEstimatorConfig()
	res, err := core.EstimateContext(context.Background(), ix, alarms, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ext := core.NewExtractor(ix, cfg.Granularity)
	members := make([][]*core.TrafficSet, len(res.Communities))
	for ci, c := range res.Communities {
		for _, ai := range c.Alarms {
			members[ci] = append(members[ci], ext.Extract(&res.Alarms[ai]))
		}
	}
	var packets float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packets = 0
		for _, sets := range members {
			packets += float64(len(ext.Union(sets).Packets))
		}
	}
	b.ReportMetric(packets, "packets")
}

// BenchmarkRadixSort times radix.Sort alone on index-shaped keys — ids drawn
// below 33 000, the bench day's packet count, so two bytes vary — at a length
// under its small-slice threshold (slices.Sort does the work) and at the
// bench day's flow and packet counts.
func BenchmarkRadixSort(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"n=64", 64}, {"n=11k", 11_000}, {"n=50k", 50_000}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			in := make([]int, size.n)
			for i := range in {
				in[i] = rng.Intn(33_000)
			}
			a, scratch := make([]int, size.n), make([]int, size.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, in)
				if out := radix.Sort(a, scratch); len(out) != size.n {
					b.Fatal("bad sort")
				}
			}
		})
	}
}

// BenchmarkMedianMAD times the robust reference PCA, KL and Gamma threshold
// every per-bin series against, on the series shapes they hand it: a batch
// day's 60-row PCA column, a late stream segment's 600-row column that is 97 %
// one value (the empty rows before the segment's first packet), and the
// 900 one-second bins of a 15-minute trace. Scratch is reused, as the
// detectors reuse theirs. One op is 100 calls: a call takes microseconds,
// which the bench gate's -benchtime=5x could not tell from timer noise.
func BenchmarkMedianMAD(b *testing.B) {
	for _, shape := range []struct {
		name  string
		n     int
		other float64 // share of rows off the repeated value
	}{{"continuous/n=60", 60, 1}, {"mostly-constant/n=600", 600, 0.03}, {"continuous/n=900", 900, 1}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(int64(shape.n)))
			col := make([]float64, shape.n)
			for i := range col {
				col[i] = -0.041
				if rng.Float64() < shape.other {
					col[i] = rng.NormFloat64()
				}
			}
			scratch := make([]float64, 2*shape.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for call := 0; call < 100; call++ {
					stats.MedianMAD(col, scratch)
				}
			}
		})
	}
}

// BenchmarkSimilarityGraph times the similarity-graph build
// (internal/simgraph) alone — set validation, the CSR inverted index, the
// per-alarm shared-id counts and edge weighting — on the full bench-trace
// detector ensemble, at several worker-pool sizes. Only the row fan-out
// varies with workers and the graph is byte-identical across sub-benches
// (TestBuildDeterminismAcrossWorkers), so the ns/op ratio is the fan-out's
// speedup the CI bench gate tracks.
func BenchmarkSimilarityGraph(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, _, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	ext := core.NewExtractor(ix, trace.GranUniFlow)
	sets := make([]simgraph.Set, len(alarms))
	for i := range alarms {
		sets[i] = ext.Extract(&alarms[i]).IDs
	}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			cfg := simgraph.Config{Measure: simgraph.Simpson, MinSimilarity: 0.1, Workers: workers}
			var edges float64
			for i := 0; i < b.N; i++ {
				g, err := simgraph.Build(context.Background(), sets, cfg)
				if err != nil {
					b.Fatal(err)
				}
				edges = float64(g.EdgeCount())
			}
			b.ReportMetric(edges, "edges")
		})
	}
}

// BenchmarkSCANN times the SCANN classification alone.
func BenchmarkSCANN(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, _, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.EstimateContext(context.Background(), ix, alarms, core.DefaultEstimatorConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewSCANN()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Classify(res, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLouvain times community mining on a planted-partition graph — one
// row: Louvain is a single sequential sweep.
func BenchmarkLouvain(b *testing.B) {
	b.ReportAllocs()
	g := graphx.New(400)
	// 20 groups of 20, dense inside.
	for grp := 0; grp < 20; grp++ {
		base := grp * 20
		for i := 0; i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				if (i+j+grp)%3 == 0 {
					g.AddEdge(base+i, base+j, 1)
				}
			}
		}
		if grp > 0 {
			g.AddEdge(base, base-1, 0.1)
		}
	}
	var communities float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm, err := g.LouvainContext(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(comm) != 400 {
			b.Fatal("bad assignment")
		}
		nc := 0
		for _, c := range comm {
			if c+1 > nc {
				nc = c + 1
			}
		}
		communities = float64(nc)
	}
	b.ReportMetric(communities, "communities")
}

// BenchmarkApriori times the rule mining labeling runs per community,
// apriori.MaximalRules, over a realistic community: 2 000 flows of the
// bench day.
func BenchmarkApriori(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	txs := make([]apriori.Transaction, 0, ix.Flows())
	for fi := 0; fi < ix.Flows() && len(txs) < 2000; fi++ {
		txs = append(txs, apriori.FromFlow(ix.Flow(fi)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = apriori.MaximalRules(txs, 0.2)
	}
}

// BenchmarkAprioriOneFlow times MaximalRules on the commonest community of a
// streamed window: one flow (the bench day's first), one transaction at the
// default uniflow granularity.
func BenchmarkAprioriOneFlow(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	txs := []apriori.Transaction{apriori.FromFlow(ix.Flow(0))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = apriori.MaximalRules(txs, 0.2)
	}
}

// BenchmarkBuildReports times the labeling tail alone — per community: rule
// mining, the one pass that yields rule support and rule-covered packets, and
// the Table 1 heuristics — over the bench day's estimate and decisions, built
// outside the timer. Its allocs/op follows the communities and their rules,
// never their packets or flows.
func BenchmarkBuildReports(b *testing.B) {
	b.ReportAllocs()
	l, err := NewPipeline().Run(benchTrace(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildReportsContext(context.Background(), l.Result, l.Decisions, core.DefaultReportOptions(), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineDay times the complete pipeline on one archive day at
// several worker-pool sizes. workers=1 is the sequential reference path;
// the labeling output is byte-identical across sub-benches (see
// TestParallelismDeterminism), so the ns/op ratio is the pure speedup.
func BenchmarkPipelineDay(b *testing.B) {
	b.ReportAllocs()
	day := benchArchive().Day(time.Date(2005, 3, 7, 0, 0, 0, 0, time.UTC))
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			p := NewPipeline().Parallelism(workers)
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(day.Trace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineStream times the segmented streaming path on one archive
// day — sealing 15s segments and labeling a sliding 2-segment window per
// stride — at several worker-pool sizes. workers=1 is the sequential
// reference path; the window labelings are byte-identical across sub-benches
// (see TestStreamDeterminismMatrix), so the ns/op ratio is the pure speedup
// of the per-segment index builds, detector fan-outs and window labelings.
// window=4,stride=1 is stream_sliding's shape over the first 120 s of its
// corpus day, sequentially: eight segments, five windows, each after the
// first carrying three segments' alarm traffic from the one before.
func BenchmarkPipelineStream(b *testing.B) {
	b.ReportAllocs()
	day := benchArchive().Day(time.Date(2005, 3, 7, 0, 0, 0, 0, time.UTC)).Trace
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchStream(b, day, workers, StreamConfig{SegmentSeconds: 15, WindowSegments: 2, WindowStride: 1})
		})
	}
	b.Run("window=4,stride=1", func(b *testing.B) {
		benchStream(b, benchStreamDay(120), 1, StreamConfig{SegmentSeconds: 15, WindowSegments: 4, WindowStride: 1})
	})
}

// benchStream streams tr through RunStream under cfg once per iteration.
func benchStream(b *testing.B, tr *trace.Trace, workers int, cfg StreamConfig) {
	b.ReportAllocs()
	p := NewPipeline().Parallelism(workers)
	p.Stream = cfg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packets := make(chan Packet, tr.Len())
		for _, pkt := range tr.Packets {
			packets <- pkt
		}
		close(packets)
		s := p.RunStream(context.Background(), packets)
		windows := 0
		for range s.Windows() {
			windows++
		}
		if err := s.Wait(); err != nil {
			b.Fatal(err)
		}
		if windows == 0 {
			b.Fatal("stream emitted no windows")
		}
	}
}

// --- Ablations (DESIGN.md) ----------------------------------------------

// BenchmarkAblationSimilarity compares the three similarity measures: the
// paper retains Simpson because containment across granularities must score
// 1. The single-community count is reported per measure.
func BenchmarkAblationSimilarity(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, _, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []simgraph.Measure{simgraph.Simpson, simgraph.Jaccard, simgraph.Constant} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.DefaultEstimatorConfig()
			cfg.Measure = m
			var singles float64
			for i := 0; i < b.N; i++ {
				res, err := core.EstimateContext(context.Background(), ix, alarms, cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				singles = float64(singleCommunities(res))
			}
			b.ReportMetric(singles, "singles")
		})
	}
}

// BenchmarkAblationCommunities compares Louvain against connected
// components; components merge everything reachable, losing small dense
// groups (community count reported).
func BenchmarkAblationCommunities(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, _, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []core.CommunityAlgo{core.Louvain, core.ConnectedComponents} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.DefaultEstimatorConfig()
			cfg.Algo = algo
			var n float64
			for i := 0; i < b.N; i++ {
				res, err := core.EstimateContext(context.Background(), ix, alarms, cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				n = float64(len(res.Communities))
			}
			b.ReportMetric(n, "communities")
		})
	}
}

// BenchmarkAblationGranularity compares the three traffic granularities
// (paper Fig 3: flows relate more alarms than packets).
func BenchmarkAblationGranularity(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, _, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []trace.Granularity{trace.GranPacket, trace.GranUniFlow, trace.GranBiFlow} {
		g := g
		b.Run(g.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.DefaultEstimatorConfig()
			cfg.Granularity = g
			var singles float64
			for i := 0; i < b.N; i++ {
				res, err := core.EstimateContext(context.Background(), ix, alarms, cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				singles = float64(singleCommunities(res))
			}
			b.ReportMetric(singles, "singles")
		})
	}
}

// BenchmarkAblationThreshold sweeps the Suspicious/Notice relative-distance
// boundary of §4.2.3/§5 and reports how many rejected communities fall in
// the Suspicious band at each setting.
func BenchmarkAblationThreshold(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	alarms, totals, err := detectAllForBench(ix)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.EstimateContext(context.Background(), ix, alarms, core.DefaultEstimatorConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.NewSCANN().Classify(res, res.Confidences(totals))
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range []float64{0.25, 0.5, 1.0} {
		th := th
		b.Run(thName(th), func(b *testing.B) {
			b.ReportAllocs()
			var suspicious float64
			for i := 0; i < b.N; i++ {
				n := 0
				for _, d := range dec {
					if !d.Accepted && d.RelDistance <= th {
						n++
					}
				}
				suspicious = float64(n)
			}
			b.ReportMetric(suspicious, "suspicious")
		})
	}
}

// singleCommunities counts the size-1 communities, the estimator's quality
// metric in Fig. 3a (fewer is better, all else equal).
func singleCommunities(res *core.Result) int {
	n := 0
	for i := range res.Communities {
		if res.Communities[i].Size() == 1 {
			n++
		}
	}
	return n
}

func thName(th float64) string {
	switch th {
	case 0.25:
		return "th=0.25"
	case 0.5:
		return "th=0.50"
	default:
		return "th=1.00"
	}
}

// --- Raw-speed benches: fused ingest and sparse Hough ---------------------

// BenchmarkIngest compares the two pcap→Index ingest paths on identical
// bytes — a full-payload day, what a capture from elsewhere is: the fused
// single-pass DecodeIndex (pooled arena, released each iteration — the
// steady-state serving path, and cmd/mawilab -in's) against the materializing
// ReadTrace+NewIndex (what cmd/mawibench's batch_day still pays). allocs/op
// on the fused sub-bench is the serving path's steady-state allocation cost.
// stored is the same fused decode of the same day in the form this module
// writes and the daemon stores (EncodeIndex, WritePcap: headers only) — what a
// flows query paid on every cache miss until the flow table got a file of
// its own, and still pays for an entry without one (BenchmarkFlowTable/decode
// is the miss now); its MB/s is over the smaller file, so compare ns/op.
// digest is Index.Digest of the decoded day: with the decode, what admission
// pays for every upload before the label store can say it is known.
func BenchmarkIngest(b *testing.B) {
	b.ReportAllocs()
	day := benchTrace(b)
	var buf bytes.Buffer
	if err := pcap.WriteTrace(&buf, day); err != nil {
		b.Fatal(err)
	}
	stripped := buf.Bytes()
	data := withPayload(stripped)
	fused := func(data []byte) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			// One untimed decode warms the arena pool so the measurement is
			// the steady-state serving cost at any -benchtime, including the
			// 1x smoke run (allocs/op is gated; a cold pool would dominate
			// it).
			if ix, err := pcap.DecodeIndex(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			} else {
				ix.Release()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := pcap.DecodeIndex(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				ix.Release()
			}
		}
	}
	b.Run("fused", fused(data))
	b.Run("stored", fused(stripped))
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		ix := trace.NewIndex(day)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(ix.Digest()) != 64 {
				b.Fatal("bad digest")
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			tr, err := pcap.ReadTrace(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if ix := trace.NewIndex(tr); ix.Len() != tr.Len() {
				b.Fatal("bad index")
			}
		}
	})
}

// withPayload returns a header-only pcap — what this module writes — as a
// capture from elsewhere that keeps its payload: every record captured out to
// its wire length (origlen, at most snaplen 65535), zeros past the headers.
// Of WriteTrace's bytes it is what the per-packet full-frame writer wrote
// before the stripped encoding was the module's only one.
func withPayload(stripped []byte) []byte {
	const hdrLen, recLen, snaplen = 24, 16, 65535
	le := binary.LittleEndian
	full := append([]byte{}, stripped[:hdrLen]...)
	le.PutUint32(full[16:], snaplen)
	for off := hdrLen; off < len(stripped); {
		caplen := int(le.Uint32(stripped[off+8:]))
		capture := min(int(le.Uint32(stripped[off+12:])), snaplen)
		rec := len(full)
		full = append(full, stripped[off:off+recLen+caplen]...)
		le.PutUint32(full[rec+8:], uint32(capture))
		full = append(full, make([]byte, capture-caplen)...)
		off += recLen + caplen
	}
	return full
}

// BenchmarkFlowTable times the flow table's file form on the bench day's
// index: encode is what a labeling job adds to its tail (one allocation, the
// file), decode what a flows query pays on a cache miss — parse, checksum,
// order check and the two posting sorts — where Ingest/stored decoded every
// packet. MB/s is over the file, 13 bytes a flow.
func BenchmarkFlowTable(b *testing.B) {
	ix := benchIndex(b)
	file := trace.EncodeFlowTable(&ix.FlowTable)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(file)))
		for i := 0; i < b.N; i++ {
			if enc := trace.EncodeFlowTable(&ix.FlowTable); len(enc) != len(file) {
				b.Fatal("encoding changed length")
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(file)))
		for i := 0; i < b.N; i++ {
			if view, err := trace.DecodeFlowTable(file); err != nil || view.Flows() != ix.Flows() {
				b.Fatalf("decoded %v, %v", view, err)
			}
		}
	})
}

// BenchmarkEncodeIndex times the job's re-encode: the bench day's index to
// the payload-stripped pcap the store keeps, straight from the columns. MB/s
// is over the bytes written; allocs/op is the result buffer and nothing per
// packet.
func BenchmarkEncodeIndex(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	b.SetBytes(int64(pcap.EncodedLen(ix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if enc := pcap.EncodeIndex(ix); len(enc) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkHoughSparse times the sparse Hough detector per tuning over the
// shared bench index (the suite detector BenchmarkDetectors/hough times only
// the optimal tuning).
func BenchmarkHoughSparse(b *testing.B) {
	b.ReportAllocs()
	ix := benchIndex(b)
	var det detectors.Detector
	for _, d := range suite.Standard() {
		if d.Name() == "hough" {
			det = d
		}
	}
	if det == nil {
		b.Fatal("suite has no hough detector")
	}
	for c := 0; c < det.NumConfigs(); c++ {
		b.Run(fmt.Sprintf("config=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(ix, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
