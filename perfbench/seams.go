package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pdps/internal/cr"
	"pdps/internal/match"
	"pdps/internal/sched"
	"pdps/internal/storage"
	"pdps/internal/wm"
)

// The seam wrappers below time the engine's pluggable layers from
// outside: each forwards to the wrapped implementation, records a span
// whose parent is the Engine.Run span it serves, and keeps the layer's
// counts. A traced run installs them; an untraced run passes the plain
// implementations, so the two must do identical work (pinned by
// TestTracedMatchesUntraced). All are safe for concurrent use.

// seamCtx is the span context every wrapper of one engine shares: the
// tracer, the Engine.Run span (set just before Run) and the request id.
type seamCtx struct {
	tr     *tracer
	parent int
	req    string
}

// samples is a mutex-guarded list of durations in nanoseconds.
type samples struct {
	mu sync.Mutex
	ns []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, float64(d))
	s.mu.Unlock()
}

func (s *samples) snapshot() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ns...)
}

func (s *samples) total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t float64
	for _, x := range s.ns {
		t += x
	}
	return time.Duration(t)
}

// tracedStrategy wraps a conflict-resolution strategy.
type tracedStrategy struct {
	inner cr.Strategy
	ctx   *seamCtx

	candidates atomic.Int64
	selects    samples
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Select(ins []*match.Instantiation) *match.Instantiation {
	t0 := time.Now()
	out := s.inner.Select(ins)
	t1 := time.Now()
	s.ctx.tr.record("cr.select", s.ctx.parent, s.ctx.req, t0, t1)
	s.candidates.Add(int64(len(ins)))
	s.selects.add(t1.Sub(t0))
	return out
}

// tracedBackend wraps a storage backend. It also implements
// storage.AutoCheckpointer, forwarding to the wrapped backend when that
// supports it; without the forward the engine would never see the
// wrapped File backend's size-triggered checkpoints and a traced run
// would measure a different program.
type tracedBackend struct {
	inner storage.Backend
	ctx   *seamCtx

	appends     samples
	syncs       samples
	checkpoints samples // BeginCheckpoint plus completion, or explicit Checkpoint
	bytes       atomic.Int64
}

func (b *tracedBackend) Append(r *storage.Record) (storage.LSN, error) {
	t0 := time.Now()
	lsn, err := b.inner.Append(r)
	t1 := time.Now()
	b.ctx.tr.record("storage.append", b.ctx.parent, b.ctx.req, t0, t1)
	b.appends.add(t1.Sub(t0))
	// Record payload size, computed outside the timed call.
	b.bytes.Add(int64(len(storage.EncodeRecord(nil, r))))
	return lsn, err
}

func (b *tracedBackend) Sync() error {
	t0 := time.Now()
	err := b.inner.Sync()
	t1 := time.Now()
	b.ctx.tr.record("storage.sync", b.ctx.parent, b.ctx.req, t0, t1)
	b.syncs.add(t1.Sub(t0))
	return err
}

func (b *tracedBackend) Checkpoint(s *wm.Store) error {
	t0 := time.Now()
	err := b.inner.Checkpoint(s)
	t1 := time.Now()
	b.ctx.tr.record("storage.checkpoint", b.ctx.parent, b.ctx.req, t0, t1)
	b.checkpoints.add(t1.Sub(t0))
	return err
}

func (b *tracedBackend) Recover() (*storage.Recovery, error) { return b.inner.Recover() }
func (b *tracedBackend) Close() error                        { return b.inner.Close() }

func (b *tracedBackend) CheckpointDue() bool {
	cp, ok := b.inner.(storage.AutoCheckpointer)
	return ok && cp.CheckpointDue()
}

// BeginCheckpoint times the synchronous seal as a child of the run and
// the returned completion as a root span: the engine runs the
// completion in the background, overlapping its own work, so it is
// storage time but not time taken out of Engine.Run.
func (b *tracedBackend) BeginCheckpoint() (func(*wm.Store) error, error) {
	cp := b.inner.(storage.AutoCheckpointer) // CheckpointDue said yes
	t0 := time.Now()
	complete, err := cp.BeginCheckpoint()
	t1 := time.Now()
	b.ctx.tr.record("storage.checkpoint_begin", b.ctx.parent, b.ctx.req, t0, t1)
	if err != nil {
		b.checkpoints.add(t1.Sub(t0))
		return nil, err
	}
	begin := t1.Sub(t0)
	return func(s *wm.Store) error {
		c0 := time.Now()
		err := complete(s)
		c1 := time.Now()
		b.ctx.tr.record("storage.checkpoint", -1, b.ctx.req, c0, c1)
		b.checkpoints.add(begin + c1.Sub(c0))
		return err
	}, nil
}

// tracedClock wraps the engine clock. The dynamic engine arms an
// AfterFunc timer for every aborted firing it retries (its backoff);
// the wrapper counts them and records each timer's wait as a span.
type tracedClock struct {
	inner sched.Clock
	ctx   *seamCtx

	armed   atomic.Int64
	armedNS atomic.Int64
}

func (c *tracedClock) Now() time.Time        { return c.inner.Now() }
func (c *tracedClock) Sleep(d time.Duration) { c.inner.Sleep(d) }

func (c *tracedClock) AfterFunc(d time.Duration, f func()) sched.Timer {
	c.armed.Add(1)
	c.armedNS.Add(int64(d))
	t0 := time.Now()
	return c.inner.AfterFunc(d, func() {
		c.ctx.tr.record("clock.backoff", c.ctx.parent, c.ctx.req, t0, time.Now())
		f()
	})
}
