// Package trace records the observable events of a production-system
// execution — firings, commits, aborts, halts — in a concurrency-safe
// log. The commit subsequence is the execution string the paper's
// semantic-consistency condition (Definition 3.2) is stated over, and
// the log is what the post-hoc consistency checker consumes.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Kind discriminates event types.
type Kind uint8

// Event kinds.
const (
	// KindFire records the dispatch of a production's execution; only
	// the parallel and static engines log it, serial ones commit at once.
	KindFire Kind = iota
	// KindCommit records a successful commit (WM atomically updated).
	KindCommit
	// KindAbort records an abort (deadlock victim, Rc–Wa victim, or
	// stale instantiation).
	KindAbort
	// KindSkip records a dispatched instantiation found invalid before
	// execution started (its condition no longer holds).
	KindSkip
	// KindHalt records execution of a halt action.
	KindHalt
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFire:
		return "fire"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindSkip:
		return "skip"
	case KindHalt:
		return "halt"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one log entry.
type Event struct {
	// Seq is the global order of the event in the log.
	Seq int
	// Kind is the event type.
	Kind Kind
	// Rule is the production's name.
	Rule string
	// Inst identifies the instantiation (rule + matched WME versions).
	Inst string
	// Txn is the lock-manager transaction ID, 0 for single-thread runs.
	Txn int64
	// Detail carries the abort reason or other context.
	Detail string
	// WMEs holds content fingerprints of the matched WMEs at commit
	// time, used by the post-hoc consistency checker.
	WMEs []string
	// At is the wall-clock time the event was logged, for latency
	// analysis (e.g. writer commit latency under the two schemes).
	At time.Time
}

// String renders the event compactly.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %s %s", e.Seq, e.Kind, e.Rule)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Log is a concurrency-safe event log. Events are appended; a
// streaming reader may remove them with Drain, after which the queries
// cover only the events still buffered.
type Log struct {
	mu     sync.Mutex
	base   int // events removed by Drain; Seq keeps counting past them
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append adds an event, assigning its sequence number and timestamp,
// and returns it.
func (l *Log) Append(e Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.base + len(l.events)
	e.At = time.Now()
	l.events = append(l.events, e)
	return e
}

// Events returns a snapshot of the log.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Drain removes and returns the buffered events, so a reader that
// streams the log elsewhere keeps it bounded by what it has not yet
// streamed. Seq keeps counting across drains. After a drain, Events,
// Commits, CommitRules, Count and Len cover only the events appended
// since.
func (l *Log) Drain() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.events
	l.events = nil
	l.base += len(out)
	return out
}

// Commits returns the commit events in order — the execution string.
func (l *Log) Commits() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Kind == KindCommit {
			out = append(out, e)
		}
	}
	return out
}

// CommitRules returns the rule names of the commit sequence.
func (l *Log) CommitRules() []string {
	var out []string
	for _, e := range l.Commits() {
		out = append(out, e.Rule)
	}
	return out
}

// Count returns how many events of the kind were logged.
func (l *Log) Count(k Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Len returns the number of events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}
