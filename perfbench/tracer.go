package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The tracer records spans around the benchmark's own calls into each
// layer of the engine; the engine itself is not instrumented. A span's
// name is "<layer>.<call>", its parent is the span that caused it, and its
// times are nanoseconds since the tracer was created. Calls too fine to
// bracket one by one (a streaming oracle's per-event Observe) add to a
// busy counter instead. Everything stays in memory until dump.
//
// A nil *tracer is the untraced run: every method is a no-op, so call
// sites need no branches.

type span struct {
	name       string
	id, parent int
	start, end int64
}

type busy struct {
	calls int64
	ns    int64
}

type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	busy  map[string]*busy
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), busy: map[string]*busy{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id (ids start at 1; 0 is "no span").
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, end: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

// add charges one fine-grained call of d nanoseconds to a busy counter.
func (t *tracer) add(name string, d int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	b := t.busy[name]
	if b == nil {
		b = &busy{}
		t.busy[name] = b
	}
	b.calls++
	b.ns += d
	t.mu.Unlock()
}

// closed returns a copy of every closed span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) busyOf(name string) busy {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.busy[name]; b != nil {
		return *b
	}
	return busy{}
}

// dump writes every span as one tab-separated line (id, parent, name,
// start ns, end ns), gzip-compressed.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	for _, s := range t.closed() {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf is the layer a span name belongs to: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clip := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clip = append(clip, [2]int64{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i][0] < clip[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clip {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Children running in
// parallel on other goroutines are counted once, by their union.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.id] = (s.end - s.start) - covered(children[s.id], s.start, s.end)
	}
	return self
}

// layerTimes sums, per layer, the busy time (union of the layer's spans,
// so nested and concurrent spans of one layer count once) and the self
// time (sum of the layer's span self times).
func layerTimes(spans []span) (busyNs, selfNs map[string]int64) {
	self := selfTimes(spans)
	byLayer := map[string][][2]int64{}
	selfNs = map[string]int64{}
	for _, s := range spans {
		l := layerOf(s.name)
		byLayer[l] = append(byLayer[l], [2]int64{s.start, s.end})
		selfNs[l] += self[s.id]
	}
	busyNs = map[string]int64{}
	for l, ivs := range byLayer {
		lo, hi := ivs[0][0], ivs[0][1]
		for _, iv := range ivs {
			lo, hi = min(lo, iv[0]), max(hi, iv[1])
		}
		busyNs[l] = covered(ivs, lo, hi)
	}
	return busyNs, selfNs
}
