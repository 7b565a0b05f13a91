package engine

import (
	"fmt"
	"io"

	"pdps/internal/match"
	"pdps/internal/obs"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// Session is an interactive single-thread interpreter: working memory
// can be mutated between firings (assert/retract), the conflict set
// inspected, and the recognize-act cycle stepped — the substrate for
// the psshell tool.
type Session struct {
	rt    *runtime
	rules []*match.Rule
}

// NewSession builds a session over the program.
func NewSession(p Program, opts Options) (*Session, error) {
	rt, err := newRuntime(p, opts)
	if err != nil {
		return nil, err
	}
	return &Session{rt: rt, rules: append([]*match.Rule(nil), p.Rules...)}, nil
}

// Store exposes the session's working memory. Mutate it only through
// the session so the matcher stays in sync.
func (s *Session) Store() *wm.Store { return s.rt.store }

// Metrics returns the session's metrics registry.
func (s *Session) Metrics() *obs.Registry { return s.rt.opts.Metrics }

// ConflictSet returns the current unfired instantiations.
func (s *Session) ConflictSet() []*match.Instantiation {
	return s.rt.candidates()
}

// AssertWME adds a tuple to working memory and updates the match state.
func (s *Session) AssertWME(class string, attrs map[string]wm.Value) *wm.WME {
	w := s.rt.store.Insert(class, attrs)
	s.rt.matcher.Insert(w)
	return w
}

// Retract removes the tuple with the given ID.
func (s *Session) Retract(id int64) error {
	w, ok := s.rt.store.Remove(id)
	if !ok {
		return fmt.Errorf("engine: no WME with id %d", id)
	}
	s.rt.matcher.Remove(w)
	return nil
}

// Step fires one production and returns its rule name ("" if the
// system is quiescent) and whether that firing halted. A halt ends the
// current run, not the session: a later Step still fires.
func (s *Session) Step() (rule string, halted bool, err error) {
	in, halted, err := s.rt.step()
	if in == nil {
		return "", false, err
	}
	return in.Rule.Name, halted, err
}

// Run fires up to max productions, stopping early at quiescence or
// after a firing that halts, and returns how many fired and whether
// the run stopped at a halt.
func (s *Session) Run(max int) (fired int, halted bool, err error) {
	for ; fired < max && !halted; fired++ {
		var rule string
		if rule, halted, err = s.Step(); err != nil || rule == "" {
			return fired, false, err
		}
	}
	return fired, halted, nil
}

// Log returns the session's trace log.
func (s *Session) Log() *trace.Log { return s.rt.opts.Log }

// LoadSnapshot replaces the session's working memory with a snapshot
// and rebuilds the match state; refraction history is reset.
func (s *Session) LoadSnapshot(r io.Reader) error {
	store, err := wm.ReadSnapshot(r)
	if err != nil {
		return err
	}
	o := s.rt.opts
	o.Restore = store
	store, m, err := load(Program{Rules: s.rules}, o)
	if err != nil {
		return err
	}
	s.rt.store = store
	s.rt.matcher = m
	s.rt.fired = make(map[string]bool)
	return nil
}
