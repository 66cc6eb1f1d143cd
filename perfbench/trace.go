package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// call: the layer function's name, when it started and ended, the span
// that caused it, and the request (or operation, or tree) it served.
type span struct {
	name       string
	id, parent uint64 // parent 0 = root
	req        uint64
	start, end int64 // ns since the tracer's epoch
}

// spanCap bounds the spans one buffer keeps.  Past it a buffer keeps a
// uniform reservoir sample, so a long run's memory stays bounded while
// the kept spans still cover the whole traced window.
const spanCap = 1 << 16

// spanBuf is one writer's span buffer.  A buffer has one writer at a
// time: a deque goroutine, a scheduler worker, or a lock holder.
type spanBuf struct {
	mu    sync.Mutex // taken only by the shared buffers
	spans []span
	seen  uint64
	rng   uint64
	_     [64]byte
}

func (b *spanBuf) add(s span) {
	b.seen++
	if len(b.spans) < spanCap {
		b.spans = append(b.spans, s)
		return
	}
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	if j := b.rng % b.seen; j < spanCap {
		b.spans[j] = s
	}
}

// spanTracer holds every span of a run in memory until writeTo.
type spanTracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	bufs   []*spanBuf
	shared [16]*spanBuf
}

// tracer is the process's span store; reset arms it for one run.
var tracer spanTracer

func (t *spanTracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = time.Now()
	t.bufs = nil
	for i := range t.shared {
		t.shared[i] = t.newBufLocked()
	}
}

func (t *spanTracer) newBufLocked() *spanBuf {
	b := &spanBuf{rng: uint64(len(t.bufs))*0x9e3779b97f4a7c15 | 1}
	t.bufs = append(t.bufs, b)
	return b
}

// buffer returns a buffer owned by one writer.
func (t *spanTracer) buffer() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.newBufLocked()
}

func (t *spanTracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *spanTracer) id() uint64 { return t.nextID.Add(1) }

// addShared records a span from a goroutine that owns no buffer (the
// HTTP server's handler goroutines); req picks the shard.
func (t *spanTracer) addShared(s span) {
	b := t.shared[s.req%uint64(len(t.shared))]
	b.mu.Lock()
	b.add(s)
	b.mu.Unlock()
}

func (t *spanTracer) recorded() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, b := range t.bufs {
		n += b.seen
	}
	return n
}

func (t *spanTracer) kept() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// writeTo writes every kept span as one tab-separated line
// (name, id, parent, req, start_ns, end_ns) to dir/file.  Called once,
// after the workload has stopped every writer.
func (t *spanTracer) writeTo(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\treq\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, b := range t.bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.req, s.start, s.end)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// durationsUs returns the durations of every kept span named name.
func (t *spanTracer) durationsUs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.name == name {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	return out
}
