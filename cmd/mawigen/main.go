// Command mawigen generates synthetic MAWI-like traces as pcap files in the
// form the MAWI archive publishes: payload stripped, each record capturing the
// Ethernet, IPv4 and transport headers and keeping the packet's wire length.
// The file is the trace's index encoded (what mawilab.EncodePcap writes), so
// it decodes to that index and its digest; the stderr summary counts packets,
// flows and duration from the same index.
//
// The -truth table goes to stdout, or to stderr when the pcap does (-out -),
// so that stdout is always one or the other whole.
//
// Usage:
//
//	mawigen -date 2004-05-10 -out day.pcap          # archive day (worm era!)
//	mawigen -seed 7 -duration 120 -rate 500 -out -  # custom trace to stdout
//	mawigen -date 2003-09-01 -truth                 # print ground truth only
//	mawigen -date 2003-09-01 -truth -out -          # pcap to stdout, truth to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mawilab/internal/mawigen"
	"mawilab/internal/pcap"
	"mawilab/internal/trace"
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

	ix := trace.NewIndex(res.Trace)
	fmt.Fprintf(os.Stderr, "generated %s: %d packets, %d flows, %.1fs, %d truth events\n",
		res.Trace.Name, ix.Len(), ix.Flows(), ix.Duration(), len(res.Truth))

	if *truth {
		// Stdout carries the pcap under -out -, so the table goes to stderr.
		tw := os.Stdout
		if *out == "-" {
			tw = os.Stderr
		}
		for _, ev := range res.Truth {
			fmt.Fprintf(tw, "%-10s [%6.1f,%6.1f) %6d pkts  %s\n", ev.Kind, ev.Start, ev.End, ev.Packets, ev.Description)
		}
	}

	if *out == "" {
		return
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("creating %s: %v", *out, err)
		}
		w = f
	}
	if err := pcap.WriteIndex(w, ix); err != nil {
		fatal("writing pcap: %v", err)
	}
	if err := w.Close(); err != nil {
		fatal("closing %s: %v", *out, err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mawigen: "+format+"\n", args...)
	os.Exit(1)
}
