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
