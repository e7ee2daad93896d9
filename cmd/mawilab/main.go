// Command mawilab runs the full MAWILab labeling pipeline on a trace and
// emits the label database as CSV on stdout — the offline analogue of the
// daily-updated MAWILab web database (§5).
//
// Usage:
//
//	mawilab -in day.pcap                       # label a pcap trace
//	mawilab -date 2004-05-10                   # generate + label an archive day
//	mawilab -date 2004-05-10 -strategy average # compare strategies
//	mawilab -in day.pcap -stream -segment 900 -window 4 -stride 1
//	                                           # segmented streaming ingest:
//	                                           # one labeling per closed window
//
// In -stream mode the pcap is read incrementally — packets flow through
// Pipeline.RunStream as they are decoded, sealing a trace segment every
// -segment seconds and labeling a sliding window of -window segments — so a
// day-scale capture is labeled without materializing it in memory first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mawilab"
	"mawilab/internal/pcap"
)

func main() {
	var (
		in       = flag.String("in", "", "input pcap path (mutually exclusive with -date)")
		dateStr  = flag.String("date", "", "archive date YYYY-MM-DD to generate and label")
		seed     = flag.Int64("seed", 1, "archive seed for -date mode")
		strategy = flag.String("strategy", "SCANN", "combination strategy: SCANN, average, minimum, maximum")
		gran     = flag.String("granularity", "uniflow", "traffic granularity: packet, uniflow, biflow")
		format   = flag.String("format", "csv", "output format: csv or admd (MAWILab XML)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size of each fan-out (1 = every fan-out inline; -stream overlaps detection and labeling at any value; output is identical)")
		verbose  = flag.Bool("v", false, "print per-community detail to stderr")
		stream   = flag.Bool("stream", false, "segmented streaming ingest: label sliding windows as they close instead of the whole trace at once")
		segment  = flag.Float64("segment", 15, "-stream: sealed-segment length in seconds (<= 0: one unbounded segment)")
		window   = flag.Int("window", 1, "-stream: labeling window length in segments")
		stride   = flag.Int("stride", 0, "-stream: window advance in segments (0 = tumbling windows)")
	)
	flag.Parse()

	if *in != "" && *dateStr != "" {
		fatal("use either -in or -date, not both")
	}
	if *in == "" && *dateStr == "" {
		fatal("one of -in or -date is required")
	}

	p := mawilab.NewPipeline().Parallelism(*workers)
	switch *strategy {
	case "SCANN", "scann":
		p.Strategy = mawilab.SCANN()
	case "average":
		p.Strategy = mawilab.Average()
	case "minimum":
		p.Strategy = mawilab.Minimum()
	case "maximum":
		p.Strategy = mawilab.Maximum()
	default:
		fatal("unknown strategy %q", *strategy)
	}
	switch *gran {
	case "packet":
		p.Estimator.Granularity = mawilab.GranPacket
	case "uniflow":
		p.Estimator.Granularity = mawilab.GranUniFlow
	case "biflow":
		p.Estimator.Granularity = mawilab.GranBiFlow
	default:
		fatal("unknown granularity %q", *gran)
	}
	if *format != "csv" && *format != "admd" {
		fatal("unknown format %q", *format)
	}
	name := *in
	if name == "" {
		name = *dateStr
	}

	if *stream {
		p.Stream = mawilab.StreamConfig{SegmentSeconds: *segment, WindowSegments: *window, WindowStride: *stride}
		runStream(p, *in, *dateStr, *seed, *format, name, *verbose)
		return
	}

	var labeling *mawilab.Labeling
	var err error
	if *in != "" {
		labeling, err = p.RunIndex(context.Background(), decodedPcap(*in))
	} else {
		labeling, err = p.Run(generatedDay(*dateStr, *seed))
	}
	if err != nil {
		fatal("pipeline: %v", err)
	}
	if *verbose {
		for _, rep := range labeling.Reports {
			fmt.Fprintln(os.Stderr, rep.String())
		}
	}
	fmt.Fprintf(os.Stderr, "mawilab: %d alarms, %d communities, %d anomalous\n",
		len(labeling.Alarms), len(labeling.Reports), len(labeling.Anomalies()))
	emit(labeling, *format, name)
}

// runStream is the -stream mode: feed packets incrementally into
// Pipeline.RunStream and emit one labeling per closed window. A read error
// cancels the stream before the feeder closes the channel, so nothing the
// error cut short is sealed or labeled, and the read error is what is
// reported.
func runStream(p *mawilab.Pipeline, in, dateStr string, seed int64, format, name string, verbose bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	packets := make(chan mawilab.Packet, 1024)
	feedErr := make(chan error, 1)
	go func() { //mawilint:allow baregoroutine — single feeder goroutine; packet order is preserved by the channel FIFO and the error joined below
		err := feed(packets, in, dateStr, seed)
		if err != nil {
			cancel()
		}
		close(packets)
		feedErr <- err
	}()

	s := p.RunStream(ctx, packets)
	nwin := 0
	for w := range s.Windows() {
		nwin++
		fmt.Fprintf(os.Stderr, "mawilab: window %d [%g,%gs): %d segments, %d packets, %d alarms, %d communities, %d anomalous\n",
			w.Window, w.Start, w.End, len(w.Segments), w.Index.Len(),
			len(w.Labeling.Alarms), len(w.Labeling.Reports), len(w.Labeling.Anomalies()))
		if verbose {
			for _, rep := range w.Labeling.Reports {
				fmt.Fprintln(os.Stderr, rep.String())
			}
		}
		fmt.Printf("# window %d [%g,%g)\n", w.Window, w.Start, w.End)
		emit(w.Labeling, format, fmt.Sprintf("%s/window-%d", name, w.Window))
	}
	err := s.Wait()
	// Only the feeder cancels ctx, and it has closed packets by then: after a
	// clean end or a cancellation its result is at hand.
	if err == nil || errors.Is(err, context.Canceled) {
		if ferr := <-feedErr; ferr != nil {
			fatal("reading stream: %v", ferr)
		}
	}
	if err != nil {
		fatal("pipeline: %v", err)
	}
	fmt.Fprintf(os.Stderr, "mawilab: stream done, %d windows\n", nwin)
}

// feed pushes the input's packets onto the channel in arrival order: a pcap
// decoded record by record — never materialized as a whole trace — or a
// generated archive day replayed packet by packet.
func feed(packets chan<- mawilab.Packet, in, dateStr string, seed int64) error {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := pcap.NewReader(f)
		if err != nil {
			return err
		}
		for {
			pkt, err := r.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			packets <- pkt
		}
	}
	for _, pkt := range generatedDay(dateStr, seed).Packets {
		packets <- pkt
	}
	return nil
}

// decodedPcap decodes the -in file straight into the index the pipeline
// labels, as the daemon ingests an upload: no row form in between.
func decodedPcap(in string) *mawilab.Index {
	f, err := os.Open(in)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	ix, err := mawilab.DecodePcap(f)
	if err != nil {
		fatal("reading pcap: %v", err)
	}
	return ix
}

// generatedDay builds the synthetic archive day for -date mode.
func generatedDay(dateStr string, seed int64) *mawilab.Trace {
	date, err := time.Parse("2006-01-02", dateStr)
	if err != nil {
		fatal("bad -date: %v", err)
	}
	return mawilab.NewArchive(seed).Day(date).Trace
}

// emit writes one labeling to stdout in the selected format.
func emit(l *mawilab.Labeling, format, name string) {
	switch format {
	case "csv":
		if err := l.WriteCSV(os.Stdout); err != nil {
			fatal("writing csv: %v", err)
		}
	case "admd":
		if err := l.WriteADMD(os.Stdout, name); err != nil {
			fatal("writing admd: %v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mawilab: "+format+"\n", args...)
	os.Exit(1)
}
