// Command psbench regenerates every quantitative artifact of the paper
// — the Section 3.3 execution-graph example (Figure 3.2), the lock
// compatibility matrix (Table 4.1), the commit/abort protocols of
// Figures 4.3–4.4, the speed-up examples of Figures 5.1–5.4 and
// Example 5.1 — and runs the empirical validations of Theorems 1 and 2
// plus the factor sweeps of Section 5. Its output is the source of
// EXPERIMENTS.md.
//
// Usage: psbench [-experiment all|e1|e2|...|e22] [-seeds N]
//
// With -cpuprofile/-memprofile, a pprof CPU profile is recorded over
// the selected experiments and a heap profile is written on exit, so
// match-phase hot spots (the §2 premise) are attributable to nodes.
//
// With -metrics, the live-engine experiments (E12, and E13's live
// counterpart sweep) annotate every run with figures read from the
// engine's metrics registry — lock conflicts by Table 4.1 mode pair,
// commit-time Rc victims, retries, lock-wait and commit-latency
// histograms — so the EXPERIMENTS.md numbers are regenerable from
// live counters rather than the run summary alone. With -metrics-dir
// DIR, each such run's full metric snapshot is also written to
// DIR/<experiment>-<run>.json.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pdps"
)

var (
	seeds      = flag.Int("seeds", 25, "randomized trials per theorem validation")
	metricsOn  = flag.Bool("metrics", false, "annotate live-engine experiments with metric-registry counters")
	metricsDir = flag.String("metrics-dir", "", "write each live run's full metric snapshot as JSON into this directory")
	cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	retePlan   = flag.Bool("rete-plan", false, "dump the compiled Rete join plans alongside the E21 results")
)

// dumpMetrics reports one live run's registry-derived figures and, with
// -metrics-dir, archives the full snapshot as <dir>/<id>-<run>.json.
// It is a no-op unless -metrics or -metrics-dir is set, so the default
// psbench output (the EXPERIMENTS.md source) is unchanged.
func dumpMetrics(id, run string, eng pdps.Engine) {
	if !*metricsOn && *metricsDir == "" {
		return
	}
	snap := eng.Metrics().Snapshot()
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			log.Fatal(err)
		}
		b, err := snap.MarshalIndent()
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*metricsDir, fmt.Sprintf("%s-%s.json", id, run))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if !*metricsOn {
		return
	}
	var conflicts int64
	for _, p := range snap.Counters {
		if p.Name == "lock_conflicts_total" {
			conflicts += p.Value
		}
	}
	line := fmt.Sprintf("    metrics[%s]: conflicts=%d rc_victims=%d deadlocks=%d retries=%d",
		run, conflicts,
		snap.Counter("lock_rc_victims_total"),
		snap.Counter("lock_deadlocks_total"),
		snap.Counter("engine_retries_total"))
	if h, ok := snap.Histogram("lock_wait_ns"); ok && h.Count > 0 {
		line += fmt.Sprintf(" lock_wait{n=%d p50=%v p99=%v}",
			h.Count, time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
	}
	if h, ok := snap.Histogram("engine_commit_latency_ns"); ok && h.Count > 0 {
		line += fmt.Sprintf(" commit_latency{mean=%v p99=%v}",
			time.Duration(h.Mean()).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
	}
	fmt.Println(line)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("psbench: ")
	which := flag.String("experiment", "all", "experiment id (e1..e22) or all")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	experiments := []struct {
		id   string
		name string
		run  func()
	}{
		{"e1", "Figure 3.2 — execution graph and ES_single (Section 3.3)", e1},
		{"e2", "Table 4.1 — lock compatibility matrix", e2},
		{"e3", "Figure 4.3 — Rc/Wa commit-first protocols", e3},
		{"e4", "Figure 4.4 — circular conflict dependency", e4},
		{"e5", "Figure 5.1 — base case speed-up", e5},
		{"e6", "Figure 5.2 — degree-of-conflict variation", e6},
		{"e7", "Figure 5.3 — execution-time variation", e7},
		{"e8", "Figure 5.4 — processor-count variation", e8},
		{"e9", "Example 5.1 — uniprocessor multi-thread inequality", e9},
		{"e10", "Theorem 1 — static approach consistency (randomized)", e10},
		{"e11", "Theorem 2 / §4.3 — dynamic approach consistency (randomized)", e11},
		{"e12", "§4.3 — lock scheme ablation (2PL vs Rc/Ra/Wa vs single)", e12},
		{"e13", "§5 — speed-up factor sweeps (conflict, Np, times)", e13},
		{"e14", "§2 — match algorithm comparison (Rete vs TREAT vs naive)", e14},
		{"e15", "§4.3 — writer latency behind long condition-readers", e15},
		{"e16", "§4.3 — abort policy ablation (rule (ii) vs re-evaluate)", e16},
		{"e17", "§2 — indexed match network", e17},
		{"e18", "§4 — hybrid consistency: lock elision, class locks, group commit", e18},
		{"e19", "§6 — durability tax and group-commit fsync amortization", e19},
		{"e21", "§2 — cost-based Rete compilation: join planning, beta sharing, adaptive replan", e21},
		{"e22", "§2 — shared alpha discrimination network: hash routing, factoring, GC", e22},
	}

	ran := false
	for _, e := range experiments {
		if *which != "all" && *which != e.id {
			continue
		}
		ran = true
		fmt.Printf("== %s: %s ==\n", strings.ToUpper(e.id), e.name)
		e.run()
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
}

// e1 rebuilds the Section 3.3 execution graph. The paper's scan is
// illegible where the add/delete sets are printed, so the fixture is a
// documented reconstruction; the artifact reproduced is the
// construction itself: the graph, its root-originating paths, and the
// prefix-closed ES_single.
func e1() {
	sys := pdps.Fig32System()
	fmt.Printf("initial conflict set: {%s}\n", strings.Join(sys.Initial(), ","))
	g := sys.BuildGraph(16)
	fmt.Printf("execution graph: %d states (complete: %v)\n", len(g.Nodes), !g.Truncated)
	done := sys.CompletedSequences(16)
	fmt.Printf("completed execution sequences (%d):\n", len(done))
	for _, seq := range done {
		fmt.Printf("  %s\n", strings.Join(seq, " "))
	}
	all := sys.Sequences(16, false)
	fmt.Printf("|ES_single| including prefixes: %d (prefix-closed: %v)\n",
		len(all), prefixClosed(all))
}

func prefixClosed(seqs [][]string) bool {
	seen := make(map[string]bool, len(seqs))
	for _, s := range seqs {
		seen[strings.Join(s, " ")] = true
	}
	for _, s := range seqs {
		for i := 1; i < len(s); i++ {
			if !seen[strings.Join(s[:i], " ")] {
				return false
			}
		}
	}
	return true
}

// e2 prints Table 4.1 for the improved scheme, plus the 2PL matrix for
// contrast, directly from the lock manager's Compatible function.
func e2() {
	modes := []pdps.LockMode{pdps.Rc, pdps.Ra, pdps.Wa}
	for _, scheme := range []pdps.Scheme{pdps.SchemeRcRaWa, pdps.Scheme2PL} {
		fmt.Printf("scheme %s (held row, requested column):\n", scheme)
		fmt.Printf("      %4s %4s %4s\n", "Rc", "Ra", "Wa")
		for _, held := range modes {
			fmt.Printf("  %s: ", held)
			for _, req := range modes {
				mark := "N"
				if pdps.LockCompatible(scheme, held, req) {
					mark = "Y"
				}
				fmt.Printf("%4s", mark)
			}
			fmt.Println()
		}
	}
	fmt.Println("paper (Table 4.1): Rc row all Y (including Wa!), Ra row Y Y N, Wa row all N")
}

// fig43Program is the two-production scenario of Figure 4.3: pi writes
// q; pj only reads q (through its condition) and writes elsewhere.
func fig43Program() pdps.Program {
	return pdps.MustParse(`
(p pi
  (q ^hot true)
  -->
  (modify 1 ^hot false))
(p pj
  (q ^hot true)
  (out ^n <n>)
  -->
  (modify 2 ^n (+ <n> 1)))
(wme q ^hot true)
(wme out ^n 0)
`)
}

// e3 demonstrates both Figure 4.3 interleavings by skewing the two
// productions' action times: (a) the reader pj commits first and both
// commit — serial order pj,pi; (b) the writer pi commits first and pj
// is aborted as the Rc victim.
func e3() {
	scenario := func(label string, piDelay, pjDelay time.Duration, wantAborts bool) {
		prog := fig43Program()
		eng, err := pdps.NewParallelEngine(prog, pdps.SchemeRcRaWa, pdps.Options{
			Np:        2,
			RuleDelay: map[string]time.Duration{"pi": piDelay, "pj": pjDelay},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			log.Fatalf("%s: inconsistent: %v", label, err)
		}
		var commits []string
		for _, c := range res.Log.Commits() {
			commits = append(commits, c.Rule)
		}
		fmt.Printf("  %s: commits=%v aborts=%d (consistent: yes)\n", label, commits, res.Aborts)
		_ = wantAborts
	}
	fmt.Println("(a) reader pj commits first -> both commit, serial order pj pi:")
	scenario("a", 80*time.Millisecond, 1*time.Millisecond, false)
	fmt.Println("(b) writer pi commits first -> pj forced to abort (rule ii):")
	scenario("b", 1*time.Millisecond, 80*time.Millisecond, true)
}

// e4 runs the Figure 4.4 circular conflict under both schemes: exactly
// one of the two productions commits, whichever mechanism resolves it
// (deadlock victim under 2PL, commit-time abort under Rc/Ra/Wa).
func e4() {
	prog := pdps.MustParse(`
(p pi
  (q ^hot true)
  (r ^hot true)
  -->
  (modify 2 ^hot false))
(p pj
  (r ^hot true)
  (q ^hot true)
  -->
  (modify 2 ^hot false))
(wme q ^hot true)
(wme r ^hot true)
`)
	for _, scheme := range []pdps.Scheme{pdps.Scheme2PL, pdps.SchemeRcRaWa} {
		eng, err := pdps.NewParallelEngine(prog, scheme, pdps.Options{
			Np: 2,
			// Hold the Rc locks for a while so both productions are
			// inside the Figure 4.4 window before requesting Wa.
			CondDelay: map[string]time.Duration{"pi": 25 * time.Millisecond, "pj": 25 * time.Millisecond},
			RuleDelay: map[string]time.Duration{"pi": 5 * time.Millisecond, "pj": 5 * time.Millisecond},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			log.Fatalf("%v: inconsistent: %v", scheme, err)
		}
		fmt.Printf("  scheme %-7s: commits=%d aborts=%d deadlocks=%d (paper: exactly one commits)\n",
			scheme, res.Firings, res.Aborts, lockDeadlocks(eng))
	}
}

func lockDeadlocks(eng pdps.Engine) int64 {
	type statser interface{ LockStats() pdps.LockStats }
	if s, ok := eng.(statser); ok {
		return s.LockStats().Deadlocks
	}
	return 0
}

func figRow(name string, sys *pdps.System, np, wantSingle, wantMulti int, wantSpeedup float64) {
	res, err := pdps.Simulate(sys, pdps.SimConfig{Np: np})
	if err != nil {
		log.Fatal(err)
	}
	status := "MATCH"
	if res.TSingle != wantSingle || res.TMulti != wantMulti {
		status = "MISMATCH"
	}
	fmt.Printf("  %s: sigma=%v\n", name, res.Sigma())
	fmt.Printf("    paper:    T_single=%d T_multi=%d speedup=%.2f\n", wantSingle, wantMulti, wantSpeedup)
	fmt.Printf("    measured: T_single=%d T_multi=%d speedup=%.2f  [%s]\n",
		res.TSingle, res.TMulti, res.Speedup(), status)
	fmt.Print(indent(res.Gantt(), "    "))
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func e5() { figRow("fig 5.1 (Np=4)", pdps.Fig51System(), 4, 9, 4, 2.25) }
func e6() { figRow("fig 5.2 (Np=4, higher conflict)", pdps.Fig52System(), 4, 5, 3, 1.67) }
func e7() { figRow("fig 5.3 (Np=4, T(P2)+1)", pdps.Fig53System(), 4, 10, 4, 2.5) }
func e8() { figRow("fig 5.4 (Np=3)", pdps.Fig51System(), pdps.Fig54Np(), 9, 6, 1.5) }

// e9 sweeps the abort fraction f of Example 5.1 on the base case.
func e9() {
	res, err := pdps.Simulate(pdps.Fig51System(), pdps.SimConfig{Np: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  T_single = %d, aborted work available to waste = %d units\n",
		res.TSingle, res.WastedWork())
	fmt.Printf("  %6s %14s %s\n", "f", "T_multi(uni)", "single-thread no worse?")
	for _, f := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.99} {
		tm := res.UniprocessorMultiTime(f)
		fmt.Printf("  %6.2f %14.2f %v\n", f, tm, tm >= float64(res.TSingle))
	}
}

// e10 validates Theorem 1 empirically: randomized programs under the
// static-partition engine; every commit sequence must replay as a
// single-thread execution.
func e10() {
	pass := 0
	for seed := int64(0); seed < int64(*seeds); seed++ {
		prog := pdps.RandomProgram(seed, 4, 24)
		eng, err := pdps.NewStaticEngine(prog, pdps.Options{Np: 4, Verify: true})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			log.Fatalf("seed %d: INCONSISTENT: %v", seed, err)
		}
		pass++
	}
	fmt.Printf("  %d/%d randomized static-partition runs semantically consistent\n", pass, *seeds)
}

// e11 validates Theorem 2 and the Section 4.3 scheme: randomized
// programs under the dynamic engine with both lock schemes and both
// abort policies.
func e11() {
	for _, scheme := range []pdps.Scheme{pdps.Scheme2PL, pdps.SchemeRcRaWa} {
		for _, policy := range []pdps.AbortPolicy{pdps.AbortAlways, pdps.AbortReevaluate} {
			pass := 0
			for seed := int64(0); seed < int64(*seeds); seed++ {
				prog := pdps.SharedCounter(3+int(seed%5), 2+int(seed%3))
				eng, err := pdps.NewParallelEngine(prog, scheme, pdps.Options{
					Np: 4, Verify: true, AbortPolicy: policy,
				})
				if err != nil {
					log.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					log.Fatalf("scheme %v seed %d: %v", scheme, seed, err)
				}
				if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
					log.Fatalf("scheme %v seed %d: INCONSISTENT: %v", scheme, seed, err)
				}
				pass++
			}
			fmt.Printf("  scheme=%-7s policy=%-10s: %d/%d runs semantically consistent\n",
				scheme, policy, pass, *seeds)
		}
	}
}

// e12 compares wall-clock time of single vs 2PL vs Rc/Ra/Wa on a
// workload with long actions (per-rule delays), where the improved
// scheme's liberal Rc locks should win, per Section 4.3.
func e12() {
	const parts, stages, np = 8, 3, 8
	delay := 3 * time.Millisecond
	mkDelays := func(prog pdps.Program) map[string]time.Duration {
		d := make(map[string]time.Duration, len(prog.Rules))
		for _, r := range prog.Rules {
			d[r.Name] = delay
		}
		return d
	}
	type mk func() (string, pdps.Engine, pdps.Program)
	builders := []mk{
		func() (string, pdps.Engine, pdps.Program) {
			prog := pdps.Pipeline(parts, stages)
			e, err := pdps.NewSingleEngine(prog, pdps.Options{RuleDelay: mkDelays(prog)})
			if err != nil {
				log.Fatal(err)
			}
			return "single", e, prog
		},
		func() (string, pdps.Engine, pdps.Program) {
			prog := pdps.Pipeline(parts, stages)
			e, err := pdps.NewParallelEngine(prog, pdps.Scheme2PL, pdps.Options{Np: np, RuleDelay: mkDelays(prog)})
			if err != nil {
				log.Fatal(err)
			}
			return "parallel-2pl", e, prog
		},
		func() (string, pdps.Engine, pdps.Program) {
			prog := pdps.Pipeline(parts, stages)
			e, err := pdps.NewParallelEngine(prog, pdps.SchemeRcRaWa, pdps.Options{Np: np, RuleDelay: mkDelays(prog)})
			if err != nil {
				log.Fatal(err)
			}
			return "parallel-rcrawa", e, prog
		},
		func() (string, pdps.Engine, pdps.Program) {
			prog := pdps.Pipeline(parts, stages)
			e, err := pdps.NewStaticEngine(prog, pdps.Options{Np: np, RuleDelay: mkDelays(prog)})
			if err != nil {
				log.Fatal(err)
			}
			return "static", e, prog
		},
	}
	fmt.Printf("  workload: pipeline parts=%d stages=%d, action cost %v, np=%d\n", parts, stages, delay, np)
	fmt.Printf("  %-16s %9s %8s %8s %12s %9s\n", "engine", "commits", "aborts", "skips", "elapsed", "speedup")
	var base time.Duration
	for _, b := range builders {
		name, eng, prog := b()
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			log.Fatalf("%s: INCONSISTENT: %v", name, err)
		}
		if name == "single" {
			base = elapsed
		}
		fmt.Printf("  %-16s %9d %8d %8d %12v %9.2f\n",
			name, res.Firings, res.Aborts, res.Skips,
			elapsed.Round(time.Millisecond), float64(base)/float64(elapsed))
		dumpMetrics("e12", name, eng)
	}
}

// e13 sweeps the three speed-up factors of Section 5 on the simulator.
func e13() {
	fmt.Println("  (i) degree of conflict (12 productions, Np=12):")
	fmt.Printf("  %10s %9s %8s %8s\n", "conflict", "T_single", "T_multi", "speedup")
	for _, degree := range []int{0, 1, 2, 4, 8, 11} {
		res, err := pdps.Simulate(pdps.ConflictChain(12, degree, 3), pdps.SimConfig{Np: 12})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %10d %9d %8d %8.2f\n", degree, res.TSingle, res.TMulti, res.Speedup())
	}
	fmt.Println("  (ii) processors (12 independent productions):")
	fmt.Printf("  %10s %9s %8s %8s\n", "Np", "T_single", "T_multi", "speedup")
	for _, np := range []int{1, 2, 3, 4, 6, 12} {
		res, err := pdps.Simulate(pdps.ConflictChain(12, 0, 3), pdps.SimConfig{Np: np})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %10d %9d %8d %8.2f\n", np, res.TSingle, res.TMulti, res.Speedup())
	}
	fmt.Println("  (iii) execution time of one production (fig 5.1 base, varying T(P2)):")
	fmt.Printf("  %10s %9s %8s %8s\n", "T(P2)", "T_single", "T_multi", "speedup")
	for _, t2 := range []int{1, 2, 3, 4, 5} {
		sys, err := pdps.NewSystem([]*pdps.AbstractProduction{
			{Name: "P1", Time: 5},
			{Name: "P2", Time: t2, Del: []string{"P1"}},
			{Name: "P3", Time: 2},
			{Name: "P4", Time: 4},
		}, []string{"P1", "P2", "P3", "P4"})
		if err != nil {
			log.Fatal(err)
		}
		res, err := pdps.Simulate(sys, pdps.SimConfig{Np: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %10d %9d %8d %8.2f\n", t2, res.TSingle, res.TMulti, res.Speedup())
	}
	if *metricsOn || *metricsDir != "" {
		e13Live()
	}
}

// e13Live is the live-engine counterpart of the Section 5 sweeps: the
// simulator tables above predict speed-ups on abstract productions,
// while this sweep measures the same two factors — processor count and
// degree of conflict — on real engines and reads the outcome from the
// metrics registry, so each table row is backed by an archivable
// snapshot.
func e13Live() {
	delay := 2 * time.Millisecond
	run := func(runName string, prog pdps.Program, np int) {
		d := make(map[string]time.Duration, len(prog.Rules))
		for _, r := range prog.Rules {
			d[r.Name] = delay
		}
		eng, err := pdps.NewParallelEngine(prog, pdps.SchemeRcRaWa, pdps.Options{Np: np, RuleDelay: d})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			log.Fatalf("%s: INCONSISTENT: %v", runName, err)
		}
		fmt.Printf("  %-16s %9d %8d %12v\n", runName, res.Firings, res.Aborts, elapsed.Round(time.Millisecond))
		dumpMetrics("e13", runName, eng)
	}
	fmt.Println("  live counterpart (Rc/Ra/Wa engine, per-rule action cost", delay, "):")
	fmt.Printf("  %-16s %9s %8s %12s\n", "run", "commits", "aborts", "elapsed")
	for _, np := range []int{1, 2, 4, 8} {
		run(fmt.Sprintf("np%d", np), pdps.Pipeline(8, 3), np)
	}
	for _, workers := range []int{2, 4, 8} {
		run(fmt.Sprintf("conflict%d", workers), pdps.SharedCounter(workers, 3), 8)
	}
}

// e15 demonstrates the motivation for the improved scheme (Section
// 4.3): "read locks acquired for evaluating the LHS are held more
// conservatively than necessary while other productions ready for
// execution must wait for their release". Several readers evaluate
// long conditions over a shared tuple q while a short writer wants to
// update q. Under 2PL the writer's Wa waits out every reader; under
// Rc/Ra/Wa it is granted immediately and the readers become commit-time
// victims. The measured quantity is the writer's commit latency.
func e15() {
	const readers = 4
	hold := 40 * time.Millisecond
	build := func() pdps.Program {
		src := `
(p writer
  (q ^hot true)
  -->
  (modify 1 ^hot false))
`
		prog := pdps.MustParse(src)
		for i := 0; i < readers; i++ {
			prog.Rules = append(prog.Rules, &pdps.Rule{
				Name: fmt.Sprintf("reader%d", i),
				Conditions: []pdps.Condition{
					{Class: "q", Tests: []pdps.AttrTest{{Attr: "hot", Op: pdps.OpEq, Const: pdps.Bool(true)}}},
					{Class: "job", Tests: []pdps.AttrTest{
						{Attr: "id", Op: pdps.OpEq, Const: pdps.Int(int64(i))},
						{Attr: "done", Op: pdps.OpEq, Const: pdps.Bool(false)},
					}},
				},
				Actions: []pdps.Action{{Kind: pdps.ActModify, CE: 1, Assigns: []pdps.AttrAssign{
					{Attr: "done", Expr: pdps.ConstExpr{Val: pdps.Bool(true)}}}}},
			})
			prog.WMEs = append(prog.WMEs, pdps.InitialWME{Class: "job",
				Attrs: map[string]pdps.Value{"id": pdps.Int(int64(i)), "done": pdps.Bool(false)}})
		}
		prog.WMEs = append(prog.WMEs, pdps.InitialWME{Class: "q",
			Attrs: map[string]pdps.Value{"hot": pdps.Bool(true)}})
		return prog
	}
	fmt.Printf("  %d readers hold Rc(q) for %v; writer wants Wa(q)\n", readers, hold)
	fmt.Printf("  %-8s %16s %9s %8s\n", "scheme", "writer latency", "commits", "aborts")
	for _, scheme := range []pdps.Scheme{pdps.Scheme2PL, pdps.SchemeRcRaWa} {
		prog := build()
		cond := map[string]time.Duration{"writer": 5 * time.Millisecond}
		for i := 0; i < readers; i++ {
			cond[fmt.Sprintf("reader%d", i)] = hold
		}
		eng, err := pdps.NewParallelEngine(prog, scheme, pdps.Options{
			Np: readers + 1, CondDelay: cond,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			log.Fatalf("%v: inconsistent: %v", scheme, err)
		}
		events := res.Log.Events()
		var start, writerCommit time.Time
		if len(events) > 0 {
			start = events[0].At
		}
		for _, e := range res.Log.Commits() {
			if e.Rule == "writer" {
				writerCommit = e.At
				break
			}
		}
		lat := writerCommit.Sub(start)
		fmt.Printf("  %-8s %16v %9d %8d\n",
			scheme, lat.Round(time.Millisecond), res.Firings, res.Aborts)
	}
	fmt.Println("  (2PL: writer waits out the readers; Rc/Ra/Wa: writer commits at once,")
	fmt.Println("   readers abort and re-fire against the new q — the Section 4.3 trade)")
}

// e16 compares the paper's unconditional rule (ii) ("if Pi reaches the
// commit point first, Pj must be forced to abort") against the noted
// alternative of re-evaluating the victim's condition first. Workload:
// slow job firings hold tuple-level Rc locks on the job class while a
// fast clock rule keeps MAKING new (already-done) job tuples — a
// relation-level Wa on the class. The insert never falsifies a running
// job's condition, so AbortReevaluate spares every victim that
// AbortAlways kills and re-runs.
func e16() {
	mk := func() pdps.Program {
		prog := pdps.MustParse(`
(p tick
  (clock ^n <t>)
  (clock ^n < 5)
  -->
  (modify 1 ^n (+ <t> 1))
  (make job ^id (+ 100 <t>) ^done true))
`)
		for i := 0; i < 8; i++ {
			// Jobs READ their job tuple (pure Rc — they write only the
			// slot class), so the clock's relation-level Wa on "job"
			// makes every running job an Rc victim at tick commit.
			prog.Rules = append(prog.Rules, &pdps.Rule{
				Name: fmt.Sprintf("job%d", i),
				Conditions: []pdps.Condition{
					{Class: "job", Tests: []pdps.AttrTest{
						{Attr: "id", Op: pdps.OpEq, Const: pdps.Int(int64(i))},
						{Attr: "done", Op: pdps.OpEq, Const: pdps.Bool(false)},
					}},
					{Class: "slot", Tests: []pdps.AttrTest{
						{Attr: "id", Op: pdps.OpEq, Const: pdps.Int(int64(i))},
						{Attr: "used", Op: pdps.OpEq, Const: pdps.Bool(false)},
					}},
				},
				Actions: []pdps.Action{{Kind: pdps.ActModify, CE: 1, Assigns: []pdps.AttrAssign{
					{Attr: "used", Expr: pdps.ConstExpr{Val: pdps.Bool(true)}}}}},
			})
			prog.WMEs = append(prog.WMEs,
				pdps.InitialWME{Class: "job",
					Attrs: map[string]pdps.Value{"id": pdps.Int(int64(i)), "done": pdps.Bool(false)}},
				pdps.InitialWME{Class: "slot",
					Attrs: map[string]pdps.Value{"id": pdps.Int(int64(i)), "used": pdps.Bool(false)}})
		}
		prog.WMEs = append(prog.WMEs, pdps.InitialWME{Class: "clock",
			Attrs: map[string]pdps.Value{"n": pdps.Int(0)}})
		return prog
	}
	// The clock evaluates its condition for a while before taking its
	// relation-level Wa, so the jobs are already holding Rc and deep in
	// their actions when it commits — the Figure 4.3(b) timing.
	cond := map[string]time.Duration{"tick": 4 * time.Millisecond}
	delays := map[string]time.Duration{"tick": time.Millisecond}
	for i := 0; i < 8; i++ {
		delays[fmt.Sprintf("job%d", i)] = 8 * time.Millisecond
	}
	fmt.Printf("  %-12s %9s %8s %8s %12s\n", "policy", "commits", "aborts", "skips", "elapsed")
	for _, policy := range []pdps.AbortPolicy{pdps.AbortAlways, pdps.AbortReevaluate} {
		prog := mk()
		eng, err := pdps.NewParallelEngine(prog, pdps.SchemeRcRaWa, pdps.Options{
			Np: 10, RuleDelay: delays, CondDelay: cond, AbortPolicy: policy, Verify: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			log.Fatalf("%v: inconsistent: %v", policy, err)
		}
		fmt.Printf("  %-12s %9d %8d %8d %12v\n",
			policy, res.Firings, res.Aborts, res.Skips, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("  (the clock's inserts never falsify a running job's condition, so the")
	fmt.Println("   reevaluate policy spares the Rc victims that rule (ii) kills and re-runs)")
}

// e14 times the same program under the three matchers.
func e14() {
	fmt.Printf("  %-8s %12s %9s\n", "matcher", "elapsed", "firings")
	for _, matcher := range []string{"rete", "treat", "naive"} {
		prog := pdps.Pipeline(120, 6)
		eng, err := pdps.NewSingleEngine(prog, pdps.Options{Matcher: matcher})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %12v %9d\n", matcher, time.Since(start).Round(time.Microsecond), res.Firings)
	}
}

// chainRule joins depth classes c0..c{depth-1} on one shared key
// attribute — every non-first condition element carries exactly one
// indexable equality test.
func chainRule(depth int) *pdps.Rule {
	r := &pdps.Rule{Name: "chain", Actions: []pdps.Action{{Kind: pdps.ActHalt}}}
	for i := 0; i < depth; i++ {
		r.Conditions = append(r.Conditions, pdps.Condition{
			Class: fmt.Sprintf("c%d", i),
			Tests: []pdps.AttrTest{{Attr: "k", Op: pdps.OpEq, Var: "x"}},
		})
	}
	return r
}

// e17 measures the indexed match network end to end. Part (i) runs
// the match-bound JoinHeavy workload under the hashed-memory Rete
// ("rete"), the pre-index linear baseline ("rete-linear"), TREAT and
// naive, reading the probe/scan counters that attribute the win to
// the indexes: the indexed network answers its right/left activations
// from single-entry buckets while the linear network walks whole
// memories (rete_scan_candidates_total counts the walked entries).
func e17() {
	const depth = 4
	joinRun := func(matcher string, keys int) (time.Duration, pdps.Engine) {
		prog := pdps.JoinHeavy(keys, depth)
		eng, err := pdps.NewSingleEngine(prog, pdps.Options{Matcher: matcher})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if res.Firings != keys {
			log.Fatalf("%s: firings = %d, want %d", matcher, res.Firings, keys)
		}
		return elapsed, eng
	}
	joinRun("rete", 60) // warm-up: allocator and scheduler state
	const keys = 120
	fmt.Printf("  (i) match-bound deep join (JoinHeavy keys=%d depth=%d, single engine):\n", keys, depth)
	fmt.Printf("  %-12s %12s %10s %8s %10s\n", "matcher", "elapsed", "probes", "scans", "scanned")
	for _, matcher := range []string{"rete", "rete-linear", "treat", "naive"} {
		elapsed, eng := joinRun(matcher, keys)
		snap := eng.Metrics().Snapshot()
		fmt.Printf("  %-12s %12v %10d %8d %10d\n",
			matcher, elapsed.Round(time.Microsecond),
			snap.Counter("rete_index_probes_total"),
			snap.Counter("rete_index_scans_total"),
			snap.Counter("rete_scan_candidates_total"))
		if matcher == "rete" {
			if h, ok := snap.Histogram("rete_index_bucket_size"); ok && h.Count > 0 {
				fmt.Printf("    bucket size: n=%d mean=%.2f p99<=%d\n",
					h.Count, float64(h.Sum)/float64(h.Count), h.Quantile(0.99))
			}
		}
		dumpMetrics("e17", matcher, eng)
	}
	// The engine rows above bundle match cost with per-cycle engine
	// work, so (i') times the matchers alone: resident reference
	// memories of `keys` tuples per chain level, then a churn of token
	// activations through the four-deep join. The linear network scans
	// each opposite memory in full per activation (O(keys) per level),
	// the indexed network probes single-entry buckets — the Doorenbos
	// argument, measured. Each cell is the best of three alternating
	// passes, so allocator and GC drift cannot favour either side.
	fmt.Println("  (i') matcher-only churn through the deep join (best of 3):")
	fmt.Printf("  %-8s %14s %14s %8s\n", "keys", "rete", "rete-linear", "ratio")
	const churnIters = 2000
	churn := func(mk func() pdps.Matcher, keys int) time.Duration {
		m := mk()
		if err := m.AddRule(chainRule(depth)); err != nil {
			log.Fatal(err)
		}
		s := pdps.NewStore()
		for k := 0; k < keys; k++ {
			for l := 1; l < depth; l++ {
				m.Insert(s.Insert(fmt.Sprintf("c%d", l), map[string]pdps.Value{"k": pdps.Int(int64(k))}))
			}
		}
		start := time.Now()
		for i := 0; i < churnIters; i++ {
			w := s.Insert("c0", map[string]pdps.Value{"k": pdps.Int(int64(i % keys))})
			m.Insert(w)
			if m.ConflictSet().Len() != 1 {
				log.Fatal("chain did not match")
			}
			m.Remove(w)
		}
		return time.Since(start)
	}
	for _, k := range []int{64, 256, 1024} {
		idxT, linT := time.Duration(1<<62), time.Duration(1<<62)
		for rep := 0; rep < 3; rep++ {
			if d := churn(func() pdps.Matcher { return pdps.NewReteNetwork() }, k); d < idxT {
				idxT = d
			}
			if d := churn(func() pdps.Matcher { return pdps.NewLinearReteNetwork() }, k); d < linT {
				linT = d
			}
		}
		fmt.Printf("  %-8d %14v %14v %7.2fx\n",
			k, idxT.Round(time.Microsecond), linT.Round(time.Microsecond),
			float64(linT)/float64(idxT))
	}
}
