package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The seam wrappers must not change what the program does: a traced
// round and an untraced round of the same seed give the same commit
// counts, final working memory and store hash.

func TestTracedMatchesUntracedTenantStream(t *testing.T) {
	plain, err := streamOnce(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := streamOnce(3, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range []*streamRound{plain, traced} {
		if rd.checkErr != nil {
			t.Fatal(rd.checkErr)
		}
	}
	for i := range plain.tenants {
		p, q := plain.tenants[i], traced.tenants[i]
		if len(p.commits) != len(q.commits) || !reflect.DeepEqual(p.wmes, q.wmes) {
			t.Errorf("tenant %d: untraced %d commits, wm %v; traced %d commits, wm %v",
				i, len(p.commits), p.wmes, len(q.commits), q.wmes)
		}
	}
}

func TestTracedMatchesUntracedBatchDurable(t *testing.T) {
	dir := t.TempDir()
	plain, err := batchOnce(4, nil, filepath.Join(dir, "plain"))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := batchOnce(4, tr, filepath.Join(dir, "traced"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range []*batchRound{plain, traced} {
		if rd.checkErr != nil {
			t.Fatal(rd.checkErr)
		}
	}
	for i, mech := range mechanisms {
		p, q := plain.runs[i], traced.runs[i]
		if p.res.Firings != q.res.Firings {
			t.Errorf("%s: %d commits untraced, %d traced", mech, p.res.Firings, q.res.Firings)
		}
		if a, b := contents(p), contents(q); a != b {
			t.Errorf("%s: final store %s untraced, %s traced", mech, a, b)
		}
		// The backend wrapper forwards the File backend's automatic
		// checkpoints, so the traced run takes the same path.
		if n := len(q.backend.checkpoints.snapshot()); n == 0 {
			t.Errorf("%s: traced run took no automatic checkpoint", mech)
		}
	}
	if len(tr.durations("engine.run")) != len(mechanisms) || len(tr.durations("storage.sync")) == 0 {
		t.Error("traced round recorded no engine or storage spans")
	}
}

// contents renders a store's WMEs without identities: the parallel
// engines reach the same final contents by different interleavings.
func contents(m *mechRun) string {
	out := ""
	for _, w := range m.eng.Store().All() {
		out += w.String()
	}
	return out
}

func TestTracedMatchesUntracedReplVerify(t *testing.T) {
	plain, err := replOnce(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := replOnce(9, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range []*replRound{plain, traced} {
		if rd.checkErr != nil {
			t.Fatal(rd.checkErr)
		}
	}
	if plain.commits != traced.commits {
		t.Errorf("%d commits untraced, %d traced", plain.commits, traced.commits)
	}
	a, errA := storeHash(plain.res.out.Result.Store)
	b, errB := storeHash(traced.res.out.Result.Store)
	if errA != nil || errB != nil || a != b {
		t.Errorf("store hash %s untraced, %s traced (%v, %v)", a, b, errA, errB)
	}
}

// BENCHMARK.json must list exactly the metrics the command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, command reports %v", e2e, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, command reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, command reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
