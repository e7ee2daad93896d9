package mawilab_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"mawilab"
)

// TestPublicErrorsMatch pins that a caller outside this module can match
// the trace layer's input errors through package mawilab alone.
func TestPublicErrorsMatch(t *testing.T) {
	reversed := &mawilab.Trace{Packets: []mawilab.Packet{
		{TS: 2e6, Proto: 6, Len: 40},
		{TS: 1e6, Proto: 6, Len: 40},
	}}

	if _, err := mawilab.NewPipeline().Run(reversed); !errors.Is(err, mawilab.ErrUnsorted) {
		t.Errorf("Run: error = %v, want ErrUnsorted", err)
	}

	var pcap bytes.Buffer
	if err := mawilab.WritePcap(&pcap, reversed); err != nil {
		t.Fatal(err)
	}
	if _, err := mawilab.DecodePcap(&pcap); !errors.Is(err, mawilab.ErrUnsorted) {
		t.Errorf("DecodePcap: error = %v, want ErrUnsorted", err)
	}

	// A negative timestamp has no pcap record; WritePcap refuses it whole.
	var negPcap bytes.Buffer
	negative := &mawilab.Trace{Packets: []mawilab.Packet{
		{TS: -1, Proto: 6, Len: 40},
		{TS: -1, Proto: 6, Len: 40},
	}}
	if err := mawilab.WritePcap(&negPcap, negative); !errors.Is(err, mawilab.ErrUnsorted) || negPcap.Len() != 0 {
		t.Errorf("WritePcap at TS -1: error = %v after %d bytes, want ErrUnsorted and none", err, negPcap.Len())
	}

	packets := make(chan mawilab.Packet, len(reversed.Packets))
	for _, p := range reversed.Packets {
		packets <- p
	}
	close(packets)
	s := mawilab.NewPipeline().RunStream(context.Background(), packets)
	for range s.Windows() {
		t.Error("RunStream labeled a window of out-of-order packets")
	}
	if err := s.Wait(); !errors.Is(err, mawilab.ErrUnsorted) {
		t.Errorf("RunStream: error = %v, want ErrUnsorted", err)
	}

	var segErr error
	for _, err := range mawilab.Segments(context.Background(), make(chan mawilab.Packet), math.NaN(), 1) {
		segErr = err
		break
	}
	if !errors.Is(segErr, mawilab.ErrSegmentLength) {
		t.Errorf("Segments: error = %v, want ErrSegmentLength", segErr)
	}
}
