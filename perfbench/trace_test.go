package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{Name: "job", Start: at(0), End: at(100), Parent: -1},
		{Name: "submit", Start: at(10), End: at(30), Parent: 0},
		{Name: "queue", Start: at(20), End: at(50), Parent: 0}, // overlaps submit
		{Name: "run", Start: at(90), End: at(120), Parent: 0},  // runs past the parent
		{Name: "inner", Start: at(95), End: at(100), Parent: 3},
		{Name: "result", ID: "j1", Start: at(130), End: at(140), Parent: -1},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"job":    50 * time.Millisecond, // 100 − [10,50) − [90,100)
		"submit": 20 * time.Millisecond,
		"queue":  30 * time.Millisecond,
		"run":    25 * time.Millisecond,
		"inner":  5 * time.Millisecond,
		"result": 10 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v; want %v", name, got[name], w)
		}
	}
}

func TestChromeTraceEvents(t *testing.T) {
	rec := NewRecorder()
	t0 := rec.origin.Add(time.Millisecond)
	root := rec.Add(Span{Name: "job", ID: "job-1", Start: t0, End: t0.Add(3 * time.Millisecond), Parent: -1, Lane: 1})
	rec.Add(Span{Name: "serve.run", ID: "job-1", Start: t0, End: t0.Add(2 * time.Millisecond), Parent: root, Lane: 1})
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ev := doc.TraceEvents
	if len(ev) != 2 || ev[0].Ph != "X" || ev[0].TS != 1000 || ev[0].Dur != 3000 {
		t.Fatalf("unexpected events %+v", ev)
	}
	if ev[1].Args["parent"] != "job" || ev[1].Args["id"] != "job-1" || ev[1].TID != 1 {
		t.Fatalf("child event lost its parent or id: %+v", ev[1])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	if i := rec.Add(Span{Name: "x"}); i != -1 || rec.Spans() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
}
