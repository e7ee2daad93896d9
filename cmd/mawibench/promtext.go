package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample maps a series as written on the wire — name plus its label set,
// e.g. `mawilabd_stage_seconds_sum{stage="detect"}` — to its value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format as mawilabd writes
// it: comment lines, then `series value` lines with no timestamps. The
// series text is kept verbatim as the key, which is all a delta between two
// scrapes of the same server needs.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after[series] − before[series]; a series absent from a scrape
// counts as 0 there (labelled children appear on first use).
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}
