package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own code only: around
// each call into a layer's public API. A span has a name, start, end, the
// span that caused it and the id of the request or transaction it served.
// Aggregates (count, total, self time, a log histogram of durations) are
// kept per name; the first rawSpanCap spans are kept verbatim. Both are
// written out when the run ends.

const rawSpanCap = 5000

// span is one recorded interval, in nanoseconds since the tracer's base.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg accumulates one span name.
type spanAgg struct {
	count     int64
	total     int64 // ns
	self      int64 // ns: total minus the children the span covers
	durations histogram
}

func (a *spanAgg) meanUS() float64 { return ratio(float64(a.total)/1e3, float64(a.count)) }

// tracer owns the lanes of one traced phase.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	ids  int64
	agg  map[string]*spanAgg
	raw  []span
	free []*lane // released lanes, reused with their buffers
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), agg: map[string]*spanAgg{}}
}

// lane records the spans of one goroutine. Spans on a lane nest: a span
// begun while another is open is its child. Finished spans wait in a
// short buffer and are folded into the tracer's aggregates in batches.
type lane struct {
	t     *tracer
	stack []frame
	done  []finished
	ids   int64 // lane-local id counter, made global by the lane number
	num   int64
}

type frame struct {
	id, parent int64
	op         uint64
	name       string
	start      time.Time
	childNS    int64
}

type finished struct {
	span
	self int64 // ns
}

const laneBatch = 4096

func (t *tracer) lane() *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	if n := len(t.free); n > 0 {
		l := t.free[n-1]
		t.free = t.free[:n-1]
		l.num, l.ids = t.ids, 0
		return l
	}
	return &lane{t: t, num: t.ids}
}

// release flushes the lane and hands it back for reuse; its goroutine
// records no more spans on it.
func (l *lane) release() {
	if l == nil {
		return
	}
	l.flush()
	l.stack = l.stack[:0]
	l.t.mu.Lock()
	l.t.free = append(l.t.free, l)
	l.t.mu.Unlock()
}

// begin opens a span for operation op; end closes the innermost one.
func (l *lane) begin(name string, op uint64) {
	if l == nil {
		return
	}
	l.ids++
	f := frame{id: l.num<<40 | l.ids, op: op, name: name, start: time.Now()}
	if n := len(l.stack); n > 0 {
		f.parent = l.stack[n-1].id
	}
	l.stack = append(l.stack, f)
}

func (l *lane) end() {
	if l == nil {
		return
	}
	now := time.Now()
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	if n := len(l.stack); n > 0 {
		l.stack[n-1].childNS += int64(now.Sub(f.start))
	}
	l.record(f, now)
}

// leaf records a finished span that has no children and no parent on
// this lane.
func (l *lane) leaf(name string, op uint64, start, end time.Time) {
	l.ids++
	l.record(frame{id: l.num<<40 | l.ids, op: op, name: name, start: start}, end)
}

func (l *lane) record(f frame, now time.Time) {
	l.done = append(l.done, finished{
		span: span{
			ID: f.id, Parent: f.parent, Op: f.op, Name: f.name,
			Start: int64(f.start.Sub(l.t.base)), End: int64(now.Sub(l.t.base)),
		},
		self: int64(now.Sub(f.start)) - f.childNS,
	})
	if len(l.done) >= laneBatch {
		l.flush()
	}
}

// flush folds the lane's finished spans into the tracer. A span still
// open (its goroutine was killed inside it) is dropped.
func (l *lane) flush() {
	if l == nil {
		return
	}
	t := l.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range l.done {
		a := t.agg[f.Name]
		if a == nil {
			a = &spanAgg{}
			t.agg[f.Name] = a
		}
		d := f.End - f.Start
		a.count++
		a.total += d
		a.self += f.self
		a.durations.add(d)
		if len(t.raw) < rawSpanCap {
			t.raw = append(t.raw, f.span)
		}
	}
	l.done = l.done[:0]
}

// get returns the aggregate for name (empty if no such span was seen).
func (t *tracer) get(name string) *spanAgg {
	if a := t.agg[name]; a != nil {
		return a
	}
	return &spanAgg{}
}

// write saves the aggregates and the raw span sample as JSON lines under
// dir. An empty dir skips writing.
func (t *tracer) write(dir, stem string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := t.agg[n]
		if err := enc.Encode(map[string]any{
			"agg": n, "count": a.count, "total_ns": a.total, "self_ns": a.self,
			"p50_ns": int64(a.durations.quantile(0.5)), "p99_ns": int64(a.durations.quantile(0.99)),
		}); err != nil {
			return err
		}
	}
	for _, s := range t.raw {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
