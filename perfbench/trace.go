package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span (-1 for a request root).
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int
	req        int
}

// tracer keeps spans in memory; they are written out once, at the end
// of the run, so recording costs two clock reads and a short lock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may nest, overlap one another (two
// concurrent calls under one parent) or spill past the parent's end; the
// covered part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		curA, curB := time.Duration(-1), time.Duration(-1)
		for _, v := range ivs {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		out[i] = s.end - s.start - covered
	}
	return out
}

// layerRow aggregates every span of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// layerTable groups spans by name. The self times of all rows sum to the
// total duration of the request roots, so each row's share of that total
// says where the request time went.
func layerTable(spans []span) (rows []layerRow, requestTotal time.Duration) {
	self := selfTimes(spans)
	idx := map[string]int{}
	for i, s := range spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(rows)
			idx[s.name] = j
			rows = append(rows, layerRow{name: s.name})
		}
		rows[j].count++
		rows[j].total += s.end - s.start
		rows[j].self += self[i]
		if s.parent < 0 {
			requestTotal += s.end - s.start
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
	return rows, requestTotal
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
			i, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
