package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Op     int    `json:"op"` // round, aggregation or trial id
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns 0 and end and charge do nothing, so the
// calls cost one nil check.
//
// The tracer also times itself: the wall time spent inside begin and end,
// and in the instrumentation the workloads report through charge
// (MemStats reads, telemetry snapshots, counter copies), is summed per
// operation as that operation's tracing overhead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cost  map[int]time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cost: map[int]time.Duration{}} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	at := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(at.Sub(t.t0)), End: -1})
	t.cost[op] += time.Since(at)
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := time.Now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = int64(at.Sub(t.t0))
	t.cost[s.Op] += time.Since(at)
	t.mu.Unlock()
}

// charge adds the time since since to op's tracing overhead; the caller
// took since just before its instrumentation work.
func (t *tracer) charge(op int, since time.Time) {
	if t == nil {
		return
	}
	d := time.Since(since)
	t.mu.Lock()
	t.cost[op] += d
	t.mu.Unlock()
}

// overheadS is the mean tracing overhead in seconds over the given ops.
func (t *tracer) overheadS(ops []int) float64 {
	total := time.Duration(0)
	for _, op := range ops {
		total += t.cost[op]
	}
	return total.Seconds() / float64(len(ops))
}

// write stores the spans and the host record as JSON at path.
func (t *tracer) write(path string, h hostRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	buf, err := json.Marshal(struct {
		Host  hostRecord `json:"host"`
		Spans []span     `json:"spans"`
	}{h, t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// perOp sums the durations of the closed spans named name by op id.
func (t *tracer) perOp(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out[s.Op] += s.seconds()
		}
	}
	return out
}
