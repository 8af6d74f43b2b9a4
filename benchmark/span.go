package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one request share an id; the parent is
// not stored but recovered by containment (the caller's span encloses
// the callee's in time), which is what lets a span taken in the server
// goroutine nest under the client span that caused it.
type span struct {
	name       string
	id         uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. cur is the id of the
// request in flight: the traced service runs use one session, so the
// writer and handler wrappers on the server side can read it instead of
// threading an id through code the benchmark does not own.
type tracer struct {
	epoch time.Time
	cur   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span for the request in flight.
func (t *tracer) add(name string, start, end int64) {
	id := t.cur.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, start: start, end: end})
	t.mu.Unlock()
}

// time runs fn inside a span.
func (t *tracer) time(name string, fn func()) {
	s := t.now()
	fn()
	t.add(name, s, t.now())
}

// layerTimes is what the per-layer table reports for one span name.
type layerTimes struct {
	total []float64 // span duration, ns
	self  []float64 // duration minus the part child spans cover, ns
}

// selfTimes groups spans by request id, nests them by containment and
// returns each name's durations and self times.
func (t *tracer) selfTimes() map[string]*layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.id != b.id {
			return a.id < b.id
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end
	})
	out := map[string]*layerTimes{}
	covered := make([]int64, len(spans)) // time covered by direct children
	var stack []int
	for i, s := range spans {
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.id == s.id && s.start >= top.start && s.end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			covered[stack[len(stack)-1]] += s.end - s.start
		}
		stack = append(stack, i)
	}
	for i, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.total = append(lt.total, float64(d))
		lt.self = append(lt.self, float64(d-covered[i]))
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// internal/trace exports for the simulator: complete ("X") events with
// microsecond timestamps, loadable in Perfetto. All spans share one
// track so Perfetto draws the containment nesting.
func (t *tracer) writeChrome(path, process string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]uint64 `json:"args,omitempty"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	evs := make([]any, 0, len(spans)+1)
	evs = append(evs, map[string]any{
		"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
		"args": map[string]string{"name": process},
	})
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1, Args: map[string]uint64{"request": s.id},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
