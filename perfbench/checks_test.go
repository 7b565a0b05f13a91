package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/repl"
	"pdps/internal/wm"
)

// Each output check passes on a real round and rejects a corrupted copy
// of that round's output.

func TestTenantCheckRejectsCorruption(t *testing.T) {
	rd, err := streamOnce(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd.checkErr != nil {
		t.Fatalf("clean round failed its check: %v", rd.checkErr)
	}
	good := rd.tenants[0]
	corrupt := map[string]func(*tenantState){
		"commit lost": func(ts *tenantState) { ts.commits = ts.commits[1:] },
		"absorbed twice": func(ts *tenantState) {
			ts.commits = append([]int{ts.commits[0]}, ts.commits...)
		},
		"cleared before absorbed": func(ts *tenantState) {
			ts.commits[0], ts.commits[1] = ts.commits[1], ts.commits[0]
		},
		"unknown commit":    func(ts *tenantState) { ts.commits[3] = -1 },
		"run not quiescent": func(ts *tenantState) { ts.nonQuiesce = 1 },
		"wme left":          func(ts *tenantState) { ts.wmes = []string{"(done ^seq 1)"} },
	}
	for name, f := range corrupt {
		ts := *good
		ts.commits = append([]int(nil), good.commits...)
		f(&ts)
		if err := checkTenant(&ts); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestSeqOf(t *testing.T) {
	if n, ok := seqOf([]string{"(event ^seq 42 ^tenant t1)"}); !ok || n != 42 {
		t.Fatalf("seqOf = %d, %v", n, ok)
	}
	if _, ok := seqOf([]string{"(event ^tenant t1)"}); ok {
		t.Fatal("seqOf found a seq in a WME without one")
	}
}

// batchSingle runs the batch-durable program once under the single
// engine with a File backend in a test directory.
func batchSingle(t *testing.T, seed int64) (*mechRun, batchProgram) {
	t.Helper()
	bp := genBatch(seed)
	m, err := openMech("single", filepath.Join(t.TempDir(), "single"), bp, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.res, m.err = m.eng.Run()
	return m, bp
}

func TestBatchCheckRejectsCorruption(t *testing.T) {
	m, bp := batchSingle(t, 11)
	if err := checkBatch(m, bp); err != nil {
		t.Fatalf("clean run failed its check: %v", err)
	}

	m, bp = batchSingle(t, 11)
	bp.commits++
	if err := checkBatch(m, bp); err == nil || !strings.Contains(err.Error(), "commits") {
		t.Errorf("wrong commit count: %v", err)
	}

	m, bp = batchSingle(t, 11)
	bp.hub--
	if err := checkBatch(m, bp); err == nil || !strings.Contains(err.Error(), "final store") {
		t.Errorf("wrong hub count: %v", err)
	}

	// A final store the log does not recover.
	m, bp = batchSingle(t, 11)
	hub := m.eng.Store().All()[0]
	if _, _, err := m.eng.Store().Modify(hub.ID, map[string]wm.Value{"n": wm.Int(bp.hub)}); err != nil {
		t.Fatal(err)
	}
	if err := checkBatch(m, bp); err == nil || !strings.Contains(err.Error(), "recovered store") {
		t.Errorf("store diverged from its log: %v", err)
	}

	// A log that lost its tail.
	m, bp = batchSingle(t, 11)
	if err := m.file.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(m.dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no log segment")
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := checkBatch(m, bp); err == nil {
		t.Error("truncated log: check passed")
	}
}

func TestReplCheckRejectsCorruption(t *testing.T) {
	rd, err := replOnce(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd.checkErr != nil {
		t.Fatalf("clean round failed its check: %v", rd.checkErr)
	}
	corrupt := map[string]func(*replResult){
		"divergence":       func(r *replResult) { r.divergences = 1 },
		"unverified trace": func(r *replResult) { r.reports[0].TraceChecked = false },
		"apply hash":       func(r *replResult) { r.reports[replFollowers].StoreHash = strings.Repeat("0", 64) },
		"follower fired":   func(r *replResult) { r.reports[1].Fired-- },
		"follower timeout": func(r *replResult) { r.waitErrs[0] = fmt.Errorf("timed out") },
		"primary commits":  func(r *replResult) { r.out.Result.Firings-- },
	}
	for name, f := range corrupt {
		r := *rd.res
		r.reports = make([]*repl.Report, len(rd.res.reports))
		for i, rep := range rd.res.reports {
			cp := *rep
			r.reports[i] = &cp
		}
		r.waitErrs = append([]error(nil), rd.res.waitErrs...)
		f(&r)
		if err := checkRepl(&r); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestBatchGeneratorShape(t *testing.T) {
	a, b := genBatch(1), genBatch(2)
	if !reflect.DeepEqual(a.prog.Rules, b.prog.Rules) {
		t.Error("rule shape depends on the seed")
	}
	if a.commits != b.commits || a.hub != b.hub {
		t.Errorf("counts depend on the seed: %d/%d vs %d/%d", a.commits, a.hub, b.commits, b.hub)
	}
	if reflect.DeepEqual(a.prog.WMEs, b.prog.WMEs) {
		t.Error("initial tuples do not depend on the seed")
	}
	if again := genBatch(1); !reflect.DeepEqual(a.prog.WMEs, again.prog.WMEs) {
		t.Error("the same seed gave different tuples")
	}
	eng, err := engine.NewSingle(a.prog, engine.Options{MaxFirings: 2 * a.commits})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != a.commits {
		t.Errorf("single committed %d, generator computed %d", res.Firings, a.commits)
	}
	all := eng.Store().All()
	if want := fmt.Sprintf("(hub ^n %d)", a.hub); len(all) != 1 || all[0].String() != want {
		t.Errorf("final store %v, generator computed only %s", all, want)
	}
}
