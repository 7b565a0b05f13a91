package rete

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pdps/internal/match"
	"pdps/internal/obs"
	"pdps/internal/wm"
)

// csKeys snapshots a conflict set as sorted instantiation keys.
func csKeys(cs *match.ConflictSet) []string {
	var keys []string
	for _, in := range cs.All() {
		keys = append(keys, in.Key())
	}
	sort.Strings(keys)
	return keys
}

// assertDrained extends assertIndexesEmpty to the network-wide token
// bookkeeping: after working memory is fully retracted nothing may
// remain in the WME registries or any chain level's memory.
func assertDrained(t *testing.T, n *Network) {
	t.Helper()
	assertIndexesEmpty(t, n)
	for w, ts := range n.tokensByWME {
		if len(ts) > 0 {
			t.Errorf("tokensByWME leaks %d tokens for %v", len(ts), w)
		}
	}
	for w, owners := range n.jrOwners {
		if len(owners) > 0 {
			t.Errorf("jrOwners leaks %d owners for %v", len(owners), w)
		}
	}
	// A token whose whole ancestry is WME-free is legitimately resident
	// on an empty working memory: a chain led by negated CEs passes the
	// root token through while nothing blocks it. Anything referencing
	// a WME is a leak.
	holdsWME := func(tok *token) bool {
		for ; tok != nil; tok = tok.parent {
			if tok.w != nil {
				return true
			}
		}
		return false
	}
	for name, rc := range n.chains {
		for lvl, bl := range rc.levels {
			for _, tok := range sourceItems(bl.source()) {
				if holdsWME(tok) {
					t.Errorf("rule %s level %d holds a WME-bearing token after drain", name, lvl)
				}
			}
		}
	}
}

// TestStaticPlanOrdering checks the compile-time planner: a rule whose
// selective constant-tested CE sits last is reordered to lead with it,
// while an already well-ordered rule compiles exactly as written (the
// tie-break keeps source order).
func TestStaticPlanOrdering(t *testing.T) {
	misordered := &match.Rule{
		Name: "mis",
		Conditions: []match.Condition{
			{Class: "wide", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			{Class: "sel", Tests: []match.AttrTest{
				{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)},
				{Attr: "k", Op: match.OpEq, Var: "x"},
			}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	}
	n := New()
	if err := n.AddRule(misordered); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(chainRule("ordered", 3)); err != nil {
		t.Fatal(err)
	}
	plans := n.Plans()
	if len(plans) != 2 {
		t.Fatalf("plans = %d, want 2", len(plans))
	}
	if got, want := plans[0].Order, []int{1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("misordered rule plan = %v, want %v", got, want)
	}
	if got, want := plans[1].Order, []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("well-ordered rule plan = %v, want %v (source order)", got, want)
	}
	if s := plans[0].String(); s != "mis: sel[1] wide[0] (cost 1153)" {
		t.Fatalf("plan rendering = %q", s)
	}

	// Source-order compilation must report identity orders.
	src := NewSourceOrder()
	if err := src.AddRule(misordered); err != nil {
		t.Fatal(err)
	}
	if got, want := src.Plans()[0].Order, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("source-order plan = %v, want %v", got, want)
	}
}

// TestAdaptiveReplanEquivalence forces a mid-run replan and proves the
// conflict set is identical before and after the chain swap, then
// drains working memory and checks nothing leaked from the retired
// subnetwork.
func TestAdaptiveReplanEquivalence(t *testing.T) {
	reg := obs.NewRegistry()
	n := New()
	n.SetMetrics(reg)
	n.SetAdaptive(true)
	n.SetAdaptiveParams(2.0, 1)
	r := &match.Rule{
		Name: "skew",
		Conditions: []match.Condition{
			{Class: "big", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			{Class: "tiny", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	}
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	// Statically big and tiny tie, so source order survives: big leads.
	if got, want := n.Plans()[0].Order, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("static plan = %v, want %v", got, want)
	}
	s := wm.NewStore()
	var ws []*wm.WME
	for i := 0; i < 256; i++ {
		w := s.Insert("big", map[string]wm.Value{"k": wm.Int(int64(i))})
		ws = append(ws, w)
		n.Insert(w)
	}
	for i := 0; i < 2; i++ {
		w := s.Insert("tiny", map[string]wm.Value{"k": wm.Int(int64(i))})
		ws = append(ws, w)
		n.Insert(w)
	}
	before := csKeys(n.cs) // read without triggering the safe point
	if len(before) != 2 {
		t.Fatalf("before replan: %d insts, want 2", len(before))
	}

	// The safe-point call sees 256-vs-2 live cardinalities and flips the
	// plan to lead with tiny.
	after := csKeys(n.ConflictSet())
	if n.Replans() != 1 {
		t.Fatalf("replans = %d, want 1", n.Replans())
	}
	if got, want := n.Plans()[0].Order, []int{1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live plan = %v, want %v", got, want)
	}
	if n.Plans()[0].Replans != 1 {
		t.Fatalf("per-rule replan count = %d, want 1", n.Plans()[0].Replans)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("conflict set changed across replan:\nbefore %v\nafter  %v", before, after)
	}
	if got := reg.Counter("rete_replan_total").Value(); got != 1 {
		t.Fatalf("rete_replan_total = %d, want 1", got)
	}

	// The swapped-in network must stay incremental: churn and drain.
	w := s.Insert("tiny", map[string]wm.Value{"k": wm.Int(100)})
	n.Insert(w)
	if got := n.cs.Len(); got != 3 {
		t.Fatalf("post-replan insert: %d insts, want 3", got)
	}
	n.Remove(w)
	for _, w := range ws {
		n.Remove(w)
	}
	if got := n.cs.Len(); got != 0 {
		t.Fatalf("drained: %d insts, want 0", got)
	}
	assertDrained(t, n)
}

// TestAdaptiveReplanJournalNetZero pins the journal contract between
// adaptive chain swaps and a change-tracking consumer such as
// Parallel.refresh: a swap journals a remove+add pair for every live
// instantiation of the replanned rule, and resolving the journal
// against current membership (ConflictSet.Contains) must yield no net
// change. One aggressively adaptive network with tracking on is driven
// against the naive matcher; after every insert and remove the
// conflict sets must agree and a mirror maintained only from the
// drained journal must equal the naive set.
func TestAdaptiveReplanJournalNetZero(t *testing.T) {
	n := New()
	n.SetAdaptive(true)
	n.SetAdaptiveParams(1.01, 1)
	naive := match.NewNaive()
	// Three rules, each joining two classes on k. The rounds below grow
	// the classes in turn, so the cheaper join order keeps flipping
	// while instantiations are live and every replan swaps a chain that
	// has instantiations to journal.
	for i := 0; i < 3; i++ {
		r := &match.Rule{
			Name: fmt.Sprintf("r%d", i),
			Conditions: []match.Condition{
				{Class: fmt.Sprintf("a%d", i), Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: fmt.Sprintf("b%d", i), Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActHalt}},
		}
		for _, m := range []match.Matcher{n, naive} {
			if err := m.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.TrackChanges(true)

	mirror := map[string]bool{}
	pairs := 0
	step := func(stage string) {
		t.Helper()
		got, want := n.ConflictSet(), naive.ConflictSet()
		if g, w := csKeys(got), csKeys(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: rete=%v naive=%v", stage, g, w)
		}
		added, removed := got.TakeChanges()
		addedKeys := map[string]bool{}
		for _, in := range added {
			addedKeys[in.Key()] = true
		}
		for _, k := range removed {
			if !got.Contains(k) {
				delete(mirror, k)
				continue
			}
			// A removal of a still-live key is half of a swap pair, so
			// the add half must be journaled too.
			if !addedKeys[k] {
				t.Fatalf("%s: journal removed live key %s without a matching re-add", stage, k)
			}
			pairs++
		}
		for k := range addedKeys {
			if got.Contains(k) {
				mirror[k] = true
			}
		}
		if len(mirror) != want.Len() {
			t.Fatalf("%s: journal mirror has %d keys, naive set %d", stage, len(mirror), want.Len())
		}
		for _, in := range want.All() {
			if !mirror[in.Key()] {
				t.Fatalf("%s: journal mirror missing %v", stage, in)
			}
		}
	}

	s := wm.NewStore()
	var ws []*wm.WME
	add := func(class string, k int) {
		w := s.Insert(class, map[string]wm.Value{"k": wm.Int(int64(k))})
		ws = append(ws, w)
		n.Insert(w)
		naive.Insert(w)
		step(fmt.Sprintf("insert %v", w))
	}
	remove := func(w *wm.WME) {
		n.Remove(w)
		naive.Remove(w)
		step(fmt.Sprintf("remove %v", w))
	}
	for round := 0; round < 4; round++ {
		class := "a"
		if round%2 == 1 {
			class = "b"
		}
		for i := 0; i < 3; i++ {
			for k := 0; k < 16*(round+1); k++ {
				add(fmt.Sprintf("%s%d", class, i), k)
			}
		}
		// Retract some of the oldest WMEs through whatever plans are live.
		cut := len(ws) / 4
		for _, w := range ws[:cut] {
			remove(w)
		}
		ws = append([]*wm.WME(nil), ws[cut:]...)
	}
	if n.Replans() == 0 || pairs == 0 {
		t.Fatalf("replans=%d swap pairs=%d; the journal contract went unexercised", n.Replans(), pairs)
	}
	for _, w := range ws {
		remove(w)
	}
	if len(mirror) != 0 {
		t.Fatalf("drained: %d instantiations remain in the journal mirror", len(mirror))
	}
	assertDrained(t, n)
}

// TestReplanNoLeakUnderSharing is the leak regression for chain
// teardown with shared prefixes: two rules share a reordered prefix,
// aggressive replanning swaps chains mid-churn, and a full retraction
// must drain every index, registry and memory.
func TestReplanNoLeakUnderSharing(t *testing.T) {
	n := newAggressiveAdaptive()
	mk := func(name, lastClass string) *match.Rule {
		return &match.Rule{
			Name: name,
			Conditions: []match.Condition{
				{Class: "c0", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "c1", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: lastClass, Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "gate", Negated: true, Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActHalt}},
		}
	}
	if err := n.AddRule(mk("r1", "c2")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(mk("r2", "c3")); err != nil {
		t.Fatal(err)
	}
	s := wm.NewStore()
	var ws []*wm.WME
	classes := []string{"c0", "c1", "c2", "c3", "gate"}
	for round := 0; round < 6; round++ {
		for i, cls := range classes {
			// Skew the cardinalities differently each round so the live
			// planner keeps finding better orders.
			copies := 1 + (round+i)%3
			for c := 0; c < copies; c++ {
				w := s.Insert(cls, map[string]wm.Value{"k": wm.Int(int64(c % 2))})
				ws = append(ws, w)
				n.Insert(w)
			}
		}
		n.ConflictSet() // safe point: evaluate and maybe swap chains
		// Retract a prefix of the oldest WMEs to force unindexing through
		// whatever chain shape is live right now.
		cut := len(ws) / 3
		for _, w := range ws[:cut] {
			n.Remove(w)
		}
		ws = append([]*wm.WME(nil), ws[cut:]...)
		n.ConflictSet()
	}
	if n.Replans() == 0 {
		t.Fatal("churn never triggered a replan; the regression test is not exercising teardown")
	}
	for _, w := range ws {
		n.Remove(w)
	}
	if got := n.ConflictSet().Len(); got != 0 {
		t.Fatalf("drained: %d insts, want 0", got)
	}
	assertDrained(t, n)
}

// TestSharedPrefixSeeding checks that a rule added late shares the
// already-populated prefix of an earlier rule without re-seeding it,
// and that both rules' instantiations list WMEs in source-CE order.
func TestSharedPrefixSeeding(t *testing.T) {
	n := New()
	if err := n.AddRule(chainRule("first", 3)); err != nil {
		t.Fatal(err)
	}
	s := wm.NewStore()
	for i := 0; i < 3; i++ {
		for c := 0; c < 3; c++ {
			n.Insert(s.Insert(fmt.Sprintf("c%d", c), map[string]wm.Value{"k": wm.Int(int64(i))}))
		}
	}
	if got := n.ConflictSet().Len(); got != 3 {
		t.Fatalf("first rule: %d insts, want 3", got)
	}
	if err := n.AddRule(chainRule("second", 3)); err != nil {
		t.Fatal(err)
	}
	if got := n.ConflictSet().Len(); got != 6 {
		t.Fatalf("after shared late rule: %d insts, want 6", got)
	}
	if top := n.Topology(); top.SharedBeta == 0 {
		t.Fatalf("identical rules share no beta levels: %+v", top)
	}
	for _, in := range n.ConflictSet().All() {
		if len(in.WMEs) != 3 {
			t.Fatalf("instantiation lists %d WMEs, want 3", len(in.WMEs))
		}
		for i, w := range in.WMEs {
			if want := fmt.Sprintf("c%d", i); w.Class != want {
				t.Fatalf("WME slot %d holds class %s, want %s (source order)", i, w.Class, want)
			}
		}
	}
}
