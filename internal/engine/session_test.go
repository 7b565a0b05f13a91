package engine

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"pdps/internal/cr"
	"pdps/internal/match"
	"pdps/internal/sched"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

func TestSessionStepAndRun(t *testing.T) {
	s, err := NewSession(counterProgram(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.ConflictSet()); got != 1 {
		t.Fatalf("initial conflict set = %d, want 1", got)
	}
	name, halted, err := s.Step()
	if err != nil || name != "dec" || halted {
		t.Fatalf("Step = %q, %v, %v", name, halted, err)
	}
	n, halted, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || halted {
		t.Fatalf("Run fired %d (halted %v), want 2 (counter reaches 0)", n, halted)
	}
	if name, halted, err := s.Step(); err != nil || name != "" || halted {
		t.Fatalf("quiescent Step = %q, %v, %v", name, halted, err)
	}
	c := s.Store().ByClass("counter")
	if !c[0].Attr("n").Equal(wm.Int(0)) {
		t.Fatalf("counter = %v", c[0])
	}
	if got := len(s.Log().Commits()); got != 3 {
		t.Fatalf("log commits = %d, want 3", got)
	}
}

func TestSessionAssertRetract(t *testing.T) {
	s, err := NewSession(Program{Rules: counterProgram(0).Rules}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ConflictSet()) != 0 {
		t.Fatal("no tuples yet")
	}
	w := s.AssertWME("counter", attrs("n", 2))
	if len(s.ConflictSet()) != 1 {
		t.Fatal("assert did not activate the rule")
	}
	if err := s.Retract(w.ID); err != nil {
		t.Fatal(err)
	}
	if len(s.ConflictSet()) != 0 {
		t.Fatal("retract did not deactivate the rule")
	}
	if err := s.Retract(999); err == nil {
		t.Fatal("retract of absent WME must error")
	}
}

func TestSessionLoadSnapshot(t *testing.T) {
	s, err := NewSession(counterProgram(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Store().WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.Store().ByClass("counter")[0].Attr("n").AsInt() != 0 {
		t.Fatal("run did not finish")
	}
	// Restore the snapshot: the counter is back at 5 and matches again.
	if err := s.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if got := s.Store().ByClass("counter")[0].Attr("n").AsInt(); got != 5 {
		t.Fatalf("restored counter = %d, want 5", got)
	}
	n, _, err := s.Run(100)
	if err != nil || n != 5 {
		t.Fatalf("re-run fired %d (%v), want 5", n, err)
	}
}

// TestSessionLoadSnapshotKeepsMatcherMetrics checks that the matcher
// rebuilt by LoadSnapshot stays wired into the session's registry: the
// Rete network's own counters must keep advancing with the firings
// after the load, like the engine counters do.
func TestSessionLoadSnapshotKeepsMatcherMetrics(t *testing.T) {
	s, err := NewSession(counterProgram(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Store().WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	reg := s.Metrics()
	commits := reg.Counter("engine_commits_total").Value()
	alpha := reg.Counter("rete_alpha_tests_evaluated_total").Value()
	if n, _, err := s.Run(100); err != nil || n != 5 {
		t.Fatalf("re-run fired %d (%v), want 5", n, err)
	}
	if got := reg.Counter("engine_commits_total").Value(); got != commits+5 {
		t.Fatalf("engine_commits_total = %d, want %d", got, commits+5)
	}
	if got := reg.Counter("rete_alpha_tests_evaluated_total").Value(); got <= alpha {
		t.Fatalf("rete_alpha_tests_evaluated_total stayed at %d across a post-load run", got)
	}
}

// TestSessionHaltEndsRunNotSession checks that a halting firing stops
// Session.Run and is reported by Step, and that the session still
// fires once new tuples arrive.
func TestSessionHaltEndsRunNotSession(t *testing.T) {
	p := counterProgram(5)
	p.Rules = append(p.Rules, &match.Rule{
		Name:     "stop",
		Priority: 10,
		Conditions: []match.Condition{
			{Class: "counter", Tests: []match.AttrTest{
				{Attr: "n", Op: match.OpEq, Const: wm.Int(3)},
			}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	})
	s, err := NewSession(p, Options{Strategy: cr.Priority{}})
	if err != nil {
		t.Fatal(err)
	}
	n, halted, err := s.Run(100)
	if err != nil || n != 3 || !halted {
		t.Fatalf("Run = %d, %v, %v; want 3 firings ending in a halt", n, halted, err)
	}
	if got := s.Log().Count(trace.KindHalt); got != 1 {
		t.Fatalf("halt events = %d, want 1", got)
	}
	name, halted, err := s.Step()
	if err != nil || name != "dec" || halted {
		t.Fatalf("Step after halt = %q, %v, %v; want a plain dec", name, halted, err)
	}
	s.AssertWME("counter", attrs("n", 3))
	if name, halted, err := s.Step(); err != nil || name != "stop" || !halted {
		t.Fatalf("Step on a new tuple = %q, %v, %v; want a halting stop", name, halted, err)
	}
}

// sleepRecorder is an immediate clock that records each Sleep.
type sleepRecorder struct {
	sched.Immediate
	slept []time.Duration
}

func (c *sleepRecorder) Sleep(d time.Duration) { c.slept = append(c.slept, d) }

// TestSessionStepHonoursRuleDelay checks that every serial firing,
// interactive ones included, pays its rule's simulated action cost.
func TestSessionStepHonoursRuleDelay(t *testing.T) {
	clock := &sleepRecorder{}
	s, err := NewSession(counterProgram(2), Options{Clock: clock,
		RuleDelay: map[string]time.Duration{"dec": time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := s.Run(100); err != nil || n != 2 {
		t.Fatalf("Run = %d, %v; want 2", n, err)
	}
	if len(clock.slept) != 2 || clock.slept[0] != time.Millisecond {
		t.Fatalf("slept %v, want two 1ms delays", clock.slept)
	}
}

// TestStepVerifiesStaleExecute removes the matched tuple behind the
// matcher's back, so the conflict set hands the step a stale
// instantiation whose modify fails before commit's check can run. With
// Verify on, both serial drivers must report it as ErrInconsistent.
func TestStepVerifiesStaleExecute(t *testing.T) {
	stale := func(store *wm.Store) {
		for _, w := range store.ByClass("counter") {
			store.Remove(w.ID)
		}
	}
	for _, verify := range []bool{false, true} {
		e, err := NewSingle(counterProgram(3), Options{Verify: verify})
		if err != nil {
			t.Fatal(err)
		}
		stale(e.Store())
		if _, err := e.Run(); err == nil || errors.Is(err, ErrInconsistent) != verify {
			t.Fatalf("Single verify=%v: Run = %v", verify, err)
		}
		s, err := NewSession(counterProgram(3), Options{Verify: verify})
		if err != nil {
			t.Fatal(err)
		}
		stale(s.Store())
		if _, _, err := s.Step(); err == nil || errors.Is(err, ErrInconsistent) != verify {
			t.Fatalf("Session verify=%v: Step = %v", verify, err)
		}
	}
}
