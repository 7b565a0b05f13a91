package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestLogAppendAndQueries(t *testing.T) {
	l := New()
	l.Append(Event{Kind: KindFire, Rule: "a", Inst: "a|1"})
	l.Append(Event{Kind: KindCommit, Rule: "a", Inst: "a|1", WMEs: []string{"(x ^v 1)"}})
	l.Append(Event{Kind: KindAbort, Rule: "b", Detail: "victim"})
	l.Append(Event{Kind: KindCommit, Rule: "b", Inst: "b|2"})
	l.Append(Event{Kind: KindSkip, Rule: "c"})
	l.Append(Event{Kind: KindHalt, Rule: "b"})

	if l.Len() != 6 {
		t.Fatalf("Len = %d", l.Len())
	}
	commits := l.Commits()
	if len(commits) != 2 || commits[0].Rule != "a" || commits[1].Rule != "b" {
		t.Fatalf("Commits = %v", commits)
	}
	if got := l.CommitRules(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("CommitRules = %v", got)
	}
	if l.Count(KindAbort) != 1 || l.Count(KindCommit) != 2 {
		t.Fatal("Count wrong")
	}
	// Sequence numbers are assigned in order.
	evs := l.Events()
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
}

// TestLogDrain checks that Drain empties the buffer while sequence
// numbers keep counting across drains.
func TestLogDrain(t *testing.T) {
	l := New()
	l.Append(Event{Kind: KindCommit, Rule: "a"})
	l.Append(Event{Kind: KindCommit, Rule: "b"})
	first := l.Drain()
	if len(first) != 2 || first[0].Seq != 0 || first[1].Seq != 1 {
		t.Fatalf("first drain = %v", first)
	}
	if l.Len() != 0 || len(l.Drain()) != 0 {
		t.Fatal("drained log still buffers events")
	}
	if e := l.Append(Event{Kind: KindHalt, Rule: "b"}); e.Seq != 2 {
		t.Fatalf("Seq after drain = %d, want 2", e.Seq)
	}
	if l.Len() != 1 || l.Count(KindCommit) != 0 || l.Count(KindHalt) != 1 {
		t.Fatal("queries after a drain must cover only the buffered events")
	}
	if second := l.Drain(); len(second) != 1 || second[0].Seq != 2 {
		t.Fatalf("second drain = %v", second)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 3, Kind: KindAbort, Rule: "r", Detail: "deadlock"}
	s := e.String()
	if !strings.Contains(s, "abort") || !strings.Contains(s, "deadlock") || !strings.Contains(s, "#3") {
		t.Fatalf("String = %q", s)
	}
	for _, k := range []Kind{KindFire, KindCommit, KindAbort, KindSkip, KindHalt, Kind(99)} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Append(Event{Kind: KindCommit, Rule: "r"})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("Len = %d", l.Len())
	}
	seen := make(map[int]bool)
	for _, e := range l.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}
