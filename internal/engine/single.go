package engine

import (
	"pdps/internal/obs"
	"pdps/internal/wm"
)

// Single is the single execution thread mechanism (Section 3.1): the
// classic match–select–execute cycle, one production at a time. Its
// set of possible commit sequences defines ES_single, the correctness
// reference for every parallel engine.
type Single struct {
	rt *runtime
}

// NewSingle builds a single-thread engine for the program.
func NewSingle(p Program, opts Options) (*Single, error) {
	rt, err := newRuntime(p, opts)
	if err != nil {
		return nil, err
	}
	return &Single{rt: rt}, nil
}

// Store exposes the engine's working memory (for inspection and tests).
func (e *Single) Store() *wm.Store { return e.rt.store }

// Metrics returns the engine's metrics registry.
func (e *Single) Metrics() *obs.Registry { return e.rt.opts.Metrics }

// Run executes recognize-act cycles until the conflict set holds no
// unfired instantiation, a halt action executes, or MaxFirings is hit.
func (e *Single) Run() (Result, error) {
	rt := e.rt
	for !rt.stopping() {
		if in, _, err := rt.step(); in == nil || err != nil {
			return rt.result(), err
		}
	}
	return rt.result(), rt.err
}
