package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span, -1 for a root. Times are
// wall-clock nanoseconds, so intervals the daemon stamps on its job
// documents line up with the benchmark's own.
type span struct {
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Extra marks a measurement the user's path does not make (the
	// interpreter into a discarding handler, say); it is left out of
	// the stage sum that is compared with the untraced time.
	Extra bool `json:"extra,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records an interval that has already ended and returns its index.
func (t *tracer) add(parent int, req, name string, start, end time.Time, extra bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Parent: parent, Req: req, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Extra: extra})
	return len(t.spans) - 1
}

// begin opens a span whose end is set by finish.
func (t *tracer) begin(parent int, req, name string) int {
	now := time.Now()
	return t.add(parent, req, name, now, now, false)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Now().UnixNano()
}

// time runs f as a child span of parent.
func (t *tracer) time(parent int, req, name string, extra bool, f func()) {
	start := time.Now()
	f()
	t.add(parent, req, name, start, time.Now(), extra)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap one another (parallel
// consumers), so their intervals are merged before subtracting, and a
// child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := int64(0)
		curA, curB := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		self[i] = s.dur() - covered
	}
	return self
}
