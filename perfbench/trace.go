package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one replayed operation share
// Op; Parent is the ID of the span that caused this one (0 for an op root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts the root span of one replayed operation and returns a handle
// for its child spans.
func (t *tracer) op(name string) *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.ops++
	o := &opTrace{t: t, op: t.ops}
	t.mu.Unlock()
	o.root = o.begin(name, 0)
	return o
}

// opTrace records the spans of one operation.
type opTrace struct {
	t    *tracer
	op   int
	root int
}

func (o *opTrace) begin(name string, parent int) int {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: o.op, Name: name, Start: time.Since(t.t0)})
	return id
}

func (o *opTrace) end(id int) {
	t := o.t
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a child span of the op root named after the layer call.
func (o *opTrace) do(name string, fn func()) {
	if o == nil {
		fn()
		return
	}
	id := o.begin(name, o.root)
	fn()
	o.end(id)
}

// finish closes the op root span.
func (o *opTrace) finish() {
	if o != nil {
		o.end(o.root)
	}
}

// selfTimes returns, per span name, the self time of every span: its
// duration minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// overheadPerOp estimates what tracing added to one replayed operation: the
// cost of recording an empty span, measured on a scratch tracer, times the
// spans per operation this tracer recorded.
func (t *tracer) overheadPerOp() time.Duration {
	const n = 10000
	o := newTracer().op("calibrate")
	start := time.Now()
	for i := 0; i < n; i++ {
		o.do("empty", func() {})
	}
	perSpan := time.Since(start) / n
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 {
		return 0
	}
	return perSpan * time.Duration(len(t.spans)) / time.Duration(t.ops)
}
