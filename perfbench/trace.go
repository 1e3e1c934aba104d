package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call into a layer. Spans of one served job share its
// ID; Parent is the index of the enclosing span, or -1 at the root.
type Span struct {
	Name   string
	ID     string
	Start  time.Time
	End    time.Time
	Parent int
	Lane   int // display row in the trace viewer
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pay one nil check per call.
type Recorder struct {
	origin time.Time
	spans  []Span
}

// NewRecorder starts an empty recorder; trace timestamps count from now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Add records a finished span and returns its index for use as a parent.
func (r *Recorder) Add(s Span) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes totals, per span name, the span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, spans []Span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs since the recorder's origin
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load offline.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := make([]traceEvent, 0, len(r.Spans()))
	for _, s := range r.Spans() {
		args := map[string]string{}
		if s.ID != "" {
			args["id"] = s.ID
		}
		if s.Parent >= 0 {
			args["parent"] = r.spans[s.Parent].Name
		}
		events = append(events, traceEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   float64(s.Start.Sub(r.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID:  1,
			TID:  s.Lane,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
