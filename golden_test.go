package pdps_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdps"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenCases are the programs whose single-thread commit traces are
// pinned: the examples/ programs (extracted to testdata/examples) and
// the integration programs. The single-thread engine is deterministic
// under a deterministic strategy, so any trace change is a semantic
// change and must be reviewed by regenerating with -update.
func goldenCases() []struct{ file, strategy string } {
	return []struct{ file, strategy string }{
		{"examples/quickstart.ops", ""},
		{"examples/diagnosis.ops", "priority"},
		{"examples/manufacturing.ops", ""},
		{"examples/persistence.ops", ""},
		{"towers.ops", ""},
		{"fibonacci.ops", ""},
		{"routing.ops", ""},
		{"escalation.ops", "priority"},
	}
}

// renderCommits flattens the commit subsequence: one line per commit,
// rule name plus the content fingerprints of the matched tuples.
func renderCommits(log *pdps.TraceLog) string {
	var b strings.Builder
	for _, ev := range log.Commits() {
		fmt.Fprintf(&b, "%s | %s\n", ev.Rule, strings.Join(ev.WMEs, ", "))
	}
	return b.String()
}

func TestGoldenTraces(t *testing.T) {
	for _, tc := range goldenCases() {
		name := strings.TrimSuffix(strings.ReplaceAll(tc.file, "/", "_"), ".ops")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := pdps.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			opts := pdps.Options{Verify: true}
			if tc.strategy != "" {
				s, err := pdps.NewStrategy(tc.strategy)
				if err != nil {
					t.Fatal(err)
				}
				opts.Strategy = s
			}
			eng, err := pdps.NewSingleEngine(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
				t.Fatal(err)
			}
			got := renderCommits(res.Log)
			goldenPath := filepath.Join("testdata", "golden", name+".trace")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (regenerate with go test -run TestGoldenTraces -update)", err)
			}
			if got != string(want) {
				t.Fatalf("commit trace diverged from %s (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s",
					goldenPath, got, want)
			}
		})
	}
}

// TestSessionMatchesSingle pins one serial semantics: an interactive
// Session run to completion must give the same commit sequence, halt
// flag and final working memory as the single-thread engine, on every
// golden program and on one that halts mid-run.
func TestSessionMatchesSingle(t *testing.T) {
	type serialCase struct {
		name, src, strategy string
		halts               bool
	}
	var cases []serialCase
	for _, tc := range goldenCases() {
		src, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, serialCase{name: tc.file, src: string(src), strategy: tc.strategy})
	}
	cases = append(cases, serialCase{name: "halt", src: `
(p stop (c ^n 2) --> (remove 1) (halt))
(p tick (c ^n <n>) --> (remove 1))
(wme c ^n 0) (wme c ^n 1) (wme c ^n 2) (wme c ^n 3) (wme c ^n 4)`, halts: true})

	options := func(t *testing.T, strategy string) pdps.Options {
		opts := pdps.Options{Verify: true}
		if strategy != "" {
			s, err := pdps.NewStrategy(strategy)
			if err != nil {
				t.Fatal(err)
			}
			opts.Strategy = s
		}
		return opts
	}
	render := func(log *pdps.TraceLog, store *pdps.Store) string {
		var b strings.Builder
		for _, ev := range log.Commits() {
			fmt.Fprintf(&b, "%s %s | %s\n", ev.Rule, ev.Inst, strings.Join(ev.WMEs, ", "))
		}
		b.WriteString("--- store ---\n")
		for _, w := range store.All() {
			fmt.Fprintf(&b, "#%d %s\n", w.ID, w)
		}
		return b.String()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := pdps.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := pdps.NewSingleEngine(prog, options(t, tc.strategy))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Halted != tc.halts {
				t.Fatalf("single halted = %v, want %v", res.Halted, tc.halts)
			}
			sess, err := pdps.NewSession(prog, options(t, tc.strategy))
			if err != nil {
				t.Fatal(err)
			}
			fired, halted, err := sess.Run(1 << 30)
			if err != nil {
				t.Fatal(err)
			}
			if fired != res.Firings || halted != res.Halted {
				t.Fatalf("session fired %d (halted %v), single fired %d (halted %v)",
					fired, halted, res.Firings, res.Halted)
			}
			if got, want := render(sess.Log(), sess.Store()), render(res.Log, eng.Store()); got != want {
				t.Fatalf("session diverged from single\n--- session ---\n%s--- single ---\n%s", got, want)
			}
		})
	}
}
