package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the index of the
// enclosing span, -1 for a root. Req identifies the request the span
// serves: tenant plus batch sequence, mechanism, or follower.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
}

// layer is the span name's prefix up to the first dot: "server",
// "engine", "cr", "storage", "clock", "repl", "trace" or "bench".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory; a nil *tracer records nothing, so
// untraced runs pay one nil check per boundary. Safe for concurrent
// use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a closed span with explicit bounds.
func (t *tracer) record(name string, parent int, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)),
		End: int64(end.Sub(t.epoch)), Parent: parent, Req: req})
}

// durations returns the durations of closed spans with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// waitLayer names spans that measure waiting, not work: a backoff timer
// armed by the engine runs while other firings proceed, so it is not
// subtracted from its parent's self time.
const waitLayer = "clock"

// selfTimes returns each layer's self time: every closed span's
// duration minus the part of its interval that its work children
// cover. The "bench" layer's self time is the unattributed remainder:
// window time no layer span covers.
func (t *tracer) selfTimes() map[string]time.Duration {
	return t.selfTimesBy(span.layer)
}

// selfTimesBy sums self time by key; spans keyed "" are skipped.
func (t *tracer) selfTimesBy(key func(span) string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= s.Start && s.layer() != waitLayer {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		k := key(s)
		if k == "" {
			continue
		}
		self := (s.End - s.Start) - covered(children[i], s.Start, s.End)
		out[k] += time.Duration(self)
	}
	return out
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
