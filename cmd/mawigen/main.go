// Command mawigen generates synthetic MAWI-like traces as pcap files.
//
// Usage:
//
//	mawigen -date 2004-05-10 -out day.pcap          # archive day (worm era!)
//	mawigen -seed 7 -duration 120 -rate 500 -out -  # custom trace to stdout
//	mawigen -date 2003-09-01 -truth                 # print ground truth only
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"mawilab/internal/mawigen"
	"mawilab/internal/pcap"
)

func main() {
	var (
		dateStr  = flag.String("date", "", "archive date YYYY-MM-DD (uses the archive calendar: eras, worms)")
		seed     = flag.Int64("seed", 1, "generator seed")
		duration = flag.Float64("duration", 60, "trace duration in seconds (custom mode)")
		rate     = flag.Float64("rate", 400, "background packet rate in pps (custom mode)")
		out      = flag.String("out", "", "output pcap path ('-' for stdout; empty skips the write)")
		truth    = flag.Bool("truth", false, "print injected ground-truth events")
	)
	flag.Parse()

	var res *mawigen.Result
	if *dateStr != "" {
		date, err := time.Parse("2006-01-02", *dateStr)
		if err != nil {
			fatal("bad -date: %v", err)
		}
		arch := mawigen.NewArchive(*seed)
		arch.Duration = *duration
		res = arch.Day(date)
	} else {
		cfg := mawigen.DefaultConfig(*seed)
		cfg.Duration = *duration
		cfg.BackgroundRate = *rate
		res = mawigen.Generate(cfg)
	}

	stats := res.Trace.ComputeStats()
	fmt.Fprintf(os.Stderr, "generated %s: %d packets, %d flows, %.1fs, %d truth events\n",
		res.Trace.Name, stats.Packets, stats.Flows, stats.Duration, len(res.Truth))

	if *truth {
		for _, ev := range res.Truth {
			fmt.Printf("%-10s [%6.1f,%6.1f) %6d pkts  %s\n", ev.Kind, ev.Start, ev.End, ev.Packets, ev.Description)
		}
	}

	if *out == "" {
		return
	}
	var w *bufio.Writer
	if *out == "-" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		f, err := os.Create(*out)
		if err != nil {
			fatal("creating %s: %v", *out, err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	if err := pcap.WriteTrace(w, res.Trace); err != nil {
		fatal("writing pcap: %v", err)
	}
	if err := w.Flush(); err != nil {
		fatal("flush: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mawigen: "+format+"\n", args...)
	os.Exit(1)
}
