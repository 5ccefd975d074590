package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call: the benchmark opens one around each call it
// makes into a layer. Parent is the id of the span that caused it (0 for
// none); Op groups the spans of one operation.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Failed bool    `json:"failed,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, but its handles still time the call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanHandle struct {
	t     *tracer
	id    int
	start time.Time
}

// begin opens a span named name under parent for operation op.
func (t *tracer) begin(name string, parent, op int) spanHandle {
	h := spanHandle{t: t, start: time.Now()}
	if t == nil {
		return h
	}
	t.mu.Lock()
	h.id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: h.id, Parent: parent, Op: op, Name: name,
		Start: h.start.Sub(t.t0).Seconds()})
	t.mu.Unlock()
	return h
}

// end closes the span and returns its duration.
func (h spanHandle) end() time.Duration { return h.close(false) }

// fail closes the span as failed and returns its duration.
func (h spanHandle) fail() time.Duration { return h.close(true) }

func (h spanHandle) close(failed bool) time.Duration {
	now := time.Now()
	if h.t != nil {
		h.t.mu.Lock()
		s := &h.t.spans[h.id-1]
		s.End = now.Sub(h.t.t0).Seconds()
		s.Failed = failed
		h.t.mu.Unlock()
	}
	return now.Sub(h.start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerNode is one row of a self-time table: a call's time and the
// replayed calls it is made of. Its self time is its own time minus its
// children's; at the root that is the residual no replay accounts for.
type layerNode struct {
	name string
	d    time.Duration
	kids []*layerNode
}

func (n *layerNode) self() time.Duration {
	s := n.d
	for _, k := range n.kids {
		s -= k.d
	}
	return s
}

// printSelfTable prints the tree with each row's total and self time. The
// self times of all rows add up to the root's total.
func printSelfTable(title string, root *layerNode) {
	fmt.Printf("self-time table: %s\n  %-44s %10s %10s %7s\n", title, "layer", "total_s", "self_s", "share")
	var walk func(n *layerNode, depth int)
	walk = func(n *layerNode, depth int) {
		name := fmt.Sprintf("%*s%s", 2*depth, "", n.name)
		if n == root {
			name += " (self = residual)"
		}
		fmt.Printf("  %-44s %10.4f %10.4f %6.1f%%\n", name, n.d.Seconds(), n.self().Seconds(),
			100*n.self().Seconds()/root.d.Seconds())
		for _, k := range n.kids {
			walk(k, depth+1)
		}
	}
	walk(root, 0)
}
