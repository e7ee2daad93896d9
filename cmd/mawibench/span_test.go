package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Name: "a", Start: 1, End: 4, Parent: 1, Op: 1},
		{ID: 3, Name: "b", Start: 3, End: 6, Parent: 1, Op: 1},  // overlaps a by 1
		{ID: 4, Name: "b", Start: 8, End: 12, Parent: 1, Op: 1}, // runs past its parent
		{ID: 5, Name: "leaf", Start: 3.5, End: 4.5, Parent: 3, Op: 1},
	}
	lt := selfTimes(spans)
	// Children cover [1,6] and [8,10] of the op: 7 of its 10 seconds.
	if got := lt["op"]; got.Calls != 1 || !near(got.Total, 10) || !near(got.Self, 3) {
		t.Errorf("op = %+v, want total 10 self 3", got)
	}
	if got := lt["a"]; !near(got.Self, 3) {
		t.Errorf("a = %+v, want self 3", got)
	}
	// b: 3 s minus its 1 s leaf, plus 4 s.
	if got := lt["b"]; got.Calls != 2 || !near(got.Total, 7) || !near(got.Self, 6) {
		t.Errorf("b = %+v, want calls 2 total 7 self 6", got)
	}
}

func TestRecorder(t *testing.T) {
	rec := newRecorder()
	t0 := rec.t0
	op := rec.open("op", 0, 0)
	if err := rec.timed("child", op, op, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	id := rec.add("server-side", t0.Add(time.Second).Round(0), t0.Add(3*time.Second).Round(0), op, op)
	rec.close(op, t0, t0.Add(4*time.Second))
	if op != 1 || id != 3 || len(rec.spans) != 3 {
		t.Fatalf("ids %d %d, %d spans", op, id, len(rec.spans))
	}
	if s := rec.spans[0]; s.Start != 0 || !near(s.End, 4) {
		t.Errorf("closed op = %+v", s)
	}
	// Round(0) strips the monotonic reading, as a timestamp parsed from JSON
	// has none; the span must still land on the recorder's axis.
	if s := rec.spans[2]; !near(s.End-s.Start, 2) || s.Parent != op {
		t.Errorf("wall-clock span = %+v", s)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 3 || back[1].Name != "child" {
		t.Errorf("span file round trip: %v, %+v", err, back)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	if id := rec.open("op", 0, 0); id != 0 {
		t.Errorf("open on nil = %d", id)
	}
	ran := false
	if err := rec.timed("x", 0, 0, func() error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("timed on nil: ran=%v err=%v", ran, err)
	}
	if id := rec.add("x", time.Now(), time.Now(), 0, 0); id != 0 {
		t.Errorf("add on nil = %d", id)
	}
	rec.close(0, time.Now(), time.Now())
}
