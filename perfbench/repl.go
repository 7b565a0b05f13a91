package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"pdps/internal/detsched"
	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/obs"
	"pdps/internal/repl"
	"pdps/internal/server"
	"pdps/internal/wm"
)

// repl-verify shape: one primary running the absorb/clear program over
// replEvents events (2×replEvents commits) under the deterministic
// scheduler, replFollowers replay followers that re-execute and verify
// it, then one late apply-mode follower that catches up from a
// checkpoint. The oracle's time and live memory grow with the square
// of the trace length; at this size the fleet verifies a round in about
// half a second with a heap peak near 160 MB, so a run holds dozens of
// rounds and the workload's figures do not hinge on how fast the host
// hands back hundreds of megabytes of freshly touched memory.
const (
	replEvents          = 300
	replFollowers       = 2
	replCheckpointEvery = 64
	replWait            = 120 * time.Second
)

// replProgram seeds the absorb/clear workload entirely in initial
// working memory, with the seed choosing the event seq values.
func replProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString(`
(p absorb (event ^seq <s>) --> (remove 1) (make done ^seq <s>))
(p clear  (done ^seq <s>) --> (remove 1))
`)
	for _, s := range rng.Perm(replEvents * 10)[:replEvents] {
		fmt.Fprintf(&b, "(wme event ^seq %d)\n", s)
	}
	return b.String()
}

// storeHash is the replicas' store identity: SHA-256 of the snapshot
// encoding.
func storeHash(s *wm.Store) (string, error) {
	var b bytes.Buffer
	if err := s.WriteSnapshot(&b); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// replResult is what the repl-verify check looks at.
type replResult struct {
	out         detsched.RunOutcome
	runErr      error
	reports     []*repl.Report // replay followers, then the apply follower
	waitErrs    []error
	divergences int64
}

// checkRepl is the repl-verify output check: a clean primary run of the
// exact commit count, zero divergence, every follower verified, and
// every follower's store hash equal to the primary's.
func checkRepl(r *replResult) error {
	if r.runErr != nil {
		return fmt.Errorf("primary run: %w", r.runErr)
	}
	if got := r.out.Result.Firings; got != 2*replEvents {
		return fmt.Errorf("primary committed %d, want %d", got, 2*replEvents)
	}
	if r.divergences != 0 {
		return fmt.Errorf("divergence counter %d", r.divergences)
	}
	primary, err := storeHash(r.out.Result.Store)
	if err != nil {
		return err
	}
	for i, rep := range r.reports {
		switch {
		case r.waitErrs[i] != nil:
			return fmt.Errorf("follower %d: %w", i, r.waitErrs[i])
		case !rep.TraceChecked:
			return fmt.Errorf("follower %d: trace not checked", i)
		case rep.Fired != r.out.Result.Firings:
			return fmt.Errorf("follower %d fired %d, primary %d", i, rep.Fired, r.out.Result.Firings)
		case rep.StoreHash != primary:
			return fmt.Errorf("follower %d (%s) store hash %.12s, primary %.12s", i, rep.Mode, rep.StoreHash, primary)
		}
	}
	return nil
}

type replRound struct {
	setup, run, verified, catchup time.Duration
	followerMax                   time.Duration
	followerDone                  []time.Duration // each replay follower's verdict, from primary start
	commits                       int
	choices                       int
	heapMB, peakMB                float64
	mem                           memDelta
	lag                           []float64
	engineSnap                    obs.Snapshot
	checkDur                      time.Duration
	checkAlloc                    uint64
	attempted, failed             int
	checkErr                      error
	res                           *replResult
}

func runReplVerify(seed int64, budget time.Duration, tr *tracer, _ string) (*outcome, error) {
	var rounds []*replRound
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		rd, err := replOnce(seed*1000+int64(r), tr)
		if err != nil {
			return nil, err
		}
		rd.res = nil // keep only the figures across rounds
		rounds = append(rounds, rd)
	}
	return replOutcome(rounds, tr), nil
}

func replOnce(seed int64, tr *tracer) (*replRound, error) {
	rng := rand.New(rand.NewSource(seed))
	rd := &replRound{}
	t0 := time.Now()
	program := replProgram(rng)
	reg := obs.NewRegistry()
	p, err := repl.NewPrimary(repl.PrimaryOptions{
		Program:         program,
		Config:          repl.RunConfig{Np: runtime.NumCPU(), Seed: rng.Int63()},
		CheckpointEvery: replCheckpointEvery,
		Metrics:         reg,
	})
	if err != nil {
		return nil, fmt.Errorf("repl-verify: primary: %w", err)
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("repl-verify: listen: %w", err)
	}
	defer p.Close()
	fleet := make([]*repl.Follower, replFollowers)
	for i := range fleet {
		fleet[i] = repl.NewFollower(repl.FollowerOptions{ID: fmt.Sprintf("r%d", i+1), Metrics: reg})
		if err := fleet[i].Connect(p.Addr().String()); err != nil {
			return nil, fmt.Errorf("repl-verify: follower connect: %w", err)
		}
		defer fleet[i].Close()
	}
	rd.setup = time.Since(t0)

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var sampler *heapSampler
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if tr != nil {
		sampler = startHeapSampler()
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			tick := time.NewTicker(500 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-tick.C:
					for _, f := range fleet {
						rd.lag = append(rd.lag, float64(f.Lag()))
					}
				}
			}
		}()
	}
	res := &replResult{reports: make([]*repl.Report, replFollowers+1), waitErrs: make([]error, replFollowers+1)}
	window := tr.begin("bench.window", -1, "repl")
	start := time.Now()
	id := tr.begin("repl.primary_run", window, "primary")
	res.out, res.runErr = p.Run()
	tr.end(id)
	runEnd := time.Now()
	rd.run = runEnd.Sub(start)
	rd.attempted++
	if res.runErr != nil {
		rd.failed++
	}
	// Wait for every follower at once, so each one's finish is timed.
	finished := make([]time.Time, replFollowers)
	var wg sync.WaitGroup
	for i, f := range fleet {
		wg.Add(1)
		go func(i int, f *repl.Follower) {
			defer wg.Done()
			res.reports[i], res.waitErrs[i] = f.Wait(replWait)
			finished[i] = time.Now()
			tr.record("repl.follower_verify", window, fmt.Sprintf("r%d", i+1), runEnd, finished[i])
		}(i, f)
	}
	wg.Wait()
	tr.end(window)
	rd.verified = time.Since(start)
	for i, t := range finished {
		rd.attempted++
		if res.waitErrs[i] != nil {
			rd.failed++
		}
		rd.followerMax = max(rd.followerMax, t.Sub(runEnd))
		rd.followerDone = append(rd.followerDone, t.Sub(start))
	}
	close(stopLag)
	lagWG.Wait()
	rd.mem = memSince(&before)
	if sampler != nil {
		rd.peakMB = sampler.peakMB()
	}
	rd.heapMB = retainedHeapMB()

	// The late joiner bootstraps from the newest checkpoint and folds
	// only the record suffix: a few milliseconds, so it is a per-layer
	// figure rather than an end-to-end one.
	c0 := time.Now()
	cid := tr.begin("repl.catchup", -1, "late")
	late := repl.NewFollower(repl.FollowerOptions{ID: "late", Mode: server.ReplModeApply, Metrics: reg})
	if err := late.Connect(p.Addr().String()); err != nil {
		return nil, fmt.Errorf("repl-verify: late follower connect: %w", err)
	}
	defer late.Close()
	res.reports[replFollowers], res.waitErrs[replFollowers] = late.Wait(replWait)
	tr.end(cid)
	rd.catchup = time.Since(c0)
	rd.attempted++
	if res.waitErrs[replFollowers] != nil {
		rd.failed++
	}

	res.divergences = counterSum(reg.Snapshot(), "repl_divergence_total")
	rd.res = res
	rd.commits = res.out.Result.Firings
	rd.choices = len(res.out.Choices)
	rd.engineSnap = res.out.Metrics
	if err := checkRepl(res); err != nil {
		rd.checkErr = fmt.Errorf("repl-verify: %w", err)
	}
	if tr != nil && res.runErr == nil {
		// The oracle the followers run, timed once on the primary's
		// commits.
		prog, err := lang.Parse(program)
		if err != nil {
			return nil, err
		}
		commits := res.out.Commits()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cid := tr.begin("trace.check", -1, "primary")
		c0 := time.Now()
		err = engine.CheckTrace(prog, commits)
		rd.checkDur = time.Since(c0)
		tr.end(cid)
		rd.checkAlloc = memSince(&m0).allocBytes
		if err != nil && rd.checkErr == nil {
			rd.checkErr = fmt.Errorf("repl-verify: primary trace: %w", err)
		}
	}
	return rd, nil
}

func replOutcome(rounds []*replRound, tr *tracer) *outcome {
	o := &outcome{named: map[string]metric{}, layers: map[string]metric{}}
	n := len(rounds)
	var setup, rate, runMS, verified, fleetRate, followerDone, heap, followerMax, catchup, lag, checkMS, checkNS, checkMB []float64
	var snaps []obs.Snapshot
	var mem memDelta
	commits, choices, peak := 0.0, 0.0, 0.0
	for _, rd := range rounds {
		o.attempted += rd.attempted
		o.failed += rd.failed
		if o.checkErr == nil {
			o.checkErr = rd.checkErr
		}
		setup = append(setup, rd.setup.Seconds())
		rate = append(rate, float64(rd.commits)/rd.run.Seconds())
		runMS = append(runMS, ms(rd.run))
		verified = append(verified, rd.verified.Seconds())
		fleetRate = append(fleetRate, float64(rd.commits)/rd.verified.Seconds())
		for _, d := range rd.followerDone {
			followerDone = append(followerDone, ms(d))
		}
		heap = append(heap, rd.heapMB)
		followerMax = append(followerMax, ms(rd.followerMax))
		catchup = append(catchup, ms(rd.catchup))
		lag = append(lag, rd.lag...)
		checkMS = append(checkMS, ms(rd.checkDur))
		checkNS = append(checkNS, ratio(float64(rd.checkDur), float64(rd.commits)))
		checkMB = append(checkMB, float64(rd.checkAlloc)/1e6)
		snaps = append(snaps, rd.engineSnap)
		mem.add(rd.mem)
		commits += float64(rd.commits)
		choices += float64(rd.choices)
		peak = max(peak, rd.peakMB)
	}
	o.named["setup_s"] = metric{median(setup), "s", n}
	o.named["primary_commits_per_s"] = metric{median(rate), "1/s", n}
	o.named["primary_run_ms"] = metric{median(runMS), "ms", n}
	o.named["verified_commits_per_s"] = metric{median(fleetRate), "1/s", n}
	o.named["follower_verified_ms"] = metric{median(followerDone), "ms", len(followerDone)}
	o.named["repl_verified_s"] = metric{median(verified), "s", n}
	o.named["retained_heap_mb"] = metric{median(heap), "MB", n}
	o.e2e = map[string]metric{
		"setup_s":          o.named["setup_s"],
		"throughput_per_s": o.named["verified_commits_per_s"],
		"completion_ms":    o.named["follower_verified_ms"],
		"tail_ms":          {1e3 * o.named["repl_verified_s"].Value, "ms", n},
		"retained_heap_mb": o.named["retained_heap_mb"],
	}
	if tr == nil {
		return o
	}
	L := o.layers
	L["repl.primary_run_ms"] = metric{median(runMS), "ms", n}
	L["repl.choices_per_commit"] = metric{ratio(choices, commits), "count", int(commits)}
	L["repl.follower_verify_ms"] = metric{median(followerMax), "ms", n}
	L["repl.lag_p99_records"] = metric{quantile(lag, 0.99), "count", len(lag)}
	L["repl.catchup_ms"] = metric{median(catchup), "ms", n}
	L["trace.check_ms"] = metric{median(checkMS), "ms", n}
	L["trace.check_ns_per_commit"] = metric{median(checkNS), "ns", n}
	L["trace.check_alloc_mb"] = metric{median(checkMB), "MB", n}
	addEngineLayers(L, snaps, n)
	addGoLayers(L, mem, commits, peak, n)
	return o
}
