package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	name       string
	parent     int32
	start, end int64
}

// tracer keeps every span of a run in memory until write. A nil
// *tracer is the untraced mode: call still times the function, and
// begin/end cost nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
}

// add records a span whose times were taken elsewhere (the HTTP
// workload stamps them from several goroutines).
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// call runs fn inside a span named name and returns its duration.
func (t *tracer) call(name string, parent int32, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// write saves the spans as CSV: id,parent,name,start_ns,end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	var line []byte
	for i, s := range t.spans {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, ',')
		line = append(line, s.name...)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		w.Write(line) // a write error resurfaces from Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
