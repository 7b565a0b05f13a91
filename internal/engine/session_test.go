package engine

import (
	"bytes"
	"testing"

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
	name, err := s.Step()
	if err != nil || name != "dec" {
		t.Fatalf("Step = %q, %v", name, err)
	}
	n, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Run fired %d, want 2 (counter reaches 0)", n)
	}
	if name, err := s.Step(); err != nil || name != "" {
		t.Fatalf("quiescent Step = %q, %v", name, err)
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
	if _, err := s.Run(100); err != nil {
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
	n, err := s.Run(100)
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
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	reg := s.Metrics()
	commits := reg.Counter("engine_commits_total").Value()
	alpha := reg.Counter("rete_alpha_tests_evaluated_total").Value()
	if n, err := s.Run(100); err != nil || n != 5 {
		t.Fatalf("re-run fired %d (%v), want 5", n, err)
	}
	if got := reg.Counter("engine_commits_total").Value(); got != commits+5 {
		t.Fatalf("engine_commits_total = %d, want %d", got, commits+5)
	}
	if got := reg.Counter("rete_alpha_tests_evaluated_total").Value(); got <= alpha {
		t.Fatalf("rete_alpha_tests_evaluated_total stayed at %d across a post-load run", got)
	}
}
