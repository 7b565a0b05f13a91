package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pdps/internal/cr"
	"pdps/internal/engine"
	"pdps/internal/lock"
	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/storage"
	"pdps/internal/wm"
)

// mechanisms are the paper's consistency mechanisms, run in this order
// on the same program each round.
var mechanisms = []string{"single", "static", "2pl", "rcrawa"}

// Flush and checkpoint policy of the batch-durable File backends: every
// Sync fsyncs (the engine syncs once per commit in the serial engines
// and once per commit group in the parallel committer), and an
// automatic checkpoint is due after this much log, which fires several
// times per run: each run appends about 250 KB of records.
const (
	batchCheckpointBytes = 64 << 10
	batchSegmentBytes    = 256 << 10
)

// batchEngine is what the benchmark needs from every engine type.
type batchEngine interface {
	Run() (engine.Result, error)
	Store() *wm.Store
	Metrics() *obs.Registry
}

// mechRun is one mechanism's engine within a round and its seams.
type mechRun struct {
	mech    string
	dir     string
	file    *storage.File
	eng     batchEngine
	ctx     *seamCtx
	strat   *tracedStrategy
	backend *tracedBackend
	clock   *tracedClock
	res     engine.Result
	elapsed time.Duration
	err     error
	snap    obs.Snapshot // engine metrics, traced rounds only
}

// openMech opens a fresh File backend, seeds it with the program's
// initial working memory as a non-firing record (the psrun -data
// protocol, so the log alone recovers the store) and builds the engine.
func openMech(mech, dir string, bp batchProgram, tr *tracer) (*mechRun, error) {
	m := &mechRun{mech: mech, dir: dir}
	f, err := storage.OpenFile(dir, storage.FileOptions{
		SegmentBytes: batchSegmentBytes, CheckpointBytes: batchCheckpointBytes})
	if err != nil {
		return nil, fmt.Errorf("batch-durable %s: %w", mech, err)
	}
	m.file = f
	base := wm.NewStore()
	var init wm.Delta
	for _, iw := range bp.prog.WMEs {
		init.Adds = append(init.Adds, base.Insert(iw.Class, iw.Attrs))
	}
	if _, err := f.Append(&storage.Record{Delta: &init}); err != nil {
		f.Close()
		return nil, fmt.Errorf("batch-durable %s: seed log: %w", mech, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("batch-durable %s: seed log: %w", mech, err)
	}
	opts := engine.Options{
		Np:         runtime.NumCPU(),
		MaxFirings: 2 * bp.commits,
		Storage:    f,
		Restore:    base,
	}
	if tr != nil {
		m.ctx = &seamCtx{tr: tr, parent: -1, req: mech}
		m.strat = &tracedStrategy{inner: cr.LEX{}, ctx: m.ctx}
		m.backend = &tracedBackend{inner: f, ctx: m.ctx}
		m.clock = &tracedClock{inner: sched.Real{}, ctx: m.ctx}
		opts.Strategy, opts.Storage, opts.Clock = m.strat, m.backend, m.clock
	}
	prog := engine.Program{Rules: bp.prog.Rules}
	switch mech {
	case "single":
		m.eng, err = engine.NewSingle(prog, opts)
	case "static":
		m.eng, err = engine.NewStatic(prog, opts)
	case "2pl":
		m.eng, err = engine.NewParallel(prog, lock.Scheme2PL, opts)
	case "rcrawa":
		m.eng, err = engine.NewParallel(prog, lock.SchemeRcRaWa, opts)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("batch-durable %s: %w", mech, err)
	}
	return m, nil
}

// checkBatch is the batch-durable output check: the exact commit count,
// a final store holding only the hub with its exact count, and a
// reopened backend recovering a store equal to the final one. It closes
// the backend.
func checkBatch(m *mechRun, bp batchProgram) error {
	closeErr := m.file.Close()
	if m.err != nil {
		return fmt.Errorf("%s: run: %w", m.mech, m.err)
	}
	if closeErr != nil {
		return fmt.Errorf("%s: close backend: %w", m.mech, closeErr)
	}
	if m.res.Firings != bp.commits || m.res.LimitHit {
		return fmt.Errorf("%s: %d commits (limit hit %v), want %d", m.mech, m.res.Firings, m.res.LimitHit, bp.commits)
	}
	final := m.eng.Store().All()
	want := fmt.Sprintf("(hub ^n %d)", bp.hub)
	if len(final) != 1 || final[0].String() != want {
		return fmt.Errorf("%s: final store %v, want only %s", m.mech, final, want)
	}
	f, err := storage.OpenFile(m.dir, storage.FileOptions{SegmentBytes: batchSegmentBytes, CheckpointBytes: -1})
	if err != nil {
		return fmt.Errorf("%s: reopen: %w", m.mech, err)
	}
	defer f.Close()
	rec, err := f.Recover()
	if err != nil {
		return fmt.Errorf("%s: recover: %w", m.mech, err)
	}
	if got, want := storeDump(rec.Store), storeDump(m.eng.Store()); got != want {
		return fmt.Errorf("%s: recovered store %s, final store %s", m.mech, got, want)
	}
	return nil
}

// storeDump renders a store as its WMEs with their identities, in ID
// order: two stores are equal when their dumps are.
func storeDump(s *wm.Store) string {
	all := s.All()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	out := ""
	for _, w := range all {
		out += fmt.Sprintf("#%d@%d%s ", w.ID, w.TimeTag, w.String())
	}
	return out
}

type batchRound struct {
	setup     time.Duration
	runs      []*mechRun
	heapMB    float64
	peakMB    float64
	mem       memDelta
	checkErr  error
	attempted int
	failed    int
}

func runBatchDurable(seed int64, budget time.Duration, tr *tracer, dataDir string) (*outcome, error) {
	var rounds []*batchRound
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		rd, err := batchOnce(seed*1000+int64(r), tr, filepath.Join(dataDir, fmt.Sprintf("batch-%d", r)))
		if err != nil {
			return nil, err
		}
		// Drop the engines, so that a later round's retained heap
		// holds only its own.
		for _, m := range rd.runs {
			m.eng, m.file, m.res.Log, m.res.Store = nil, nil, nil, nil
		}
		rounds = append(rounds, rd)
	}
	return batchOutcome(rounds, tr), nil
}

func batchOnce(seed int64, tr *tracer, dir string) (*batchRound, error) {
	rd := &batchRound{}
	t0 := time.Now()
	bp := genBatch(seed)
	defer os.RemoveAll(dir)
	for _, mech := range mechanisms {
		m, err := openMech(mech, filepath.Join(dir, mech), bp, tr)
		if err != nil {
			for _, o := range rd.runs {
				o.file.Close()
			}
			return nil, err
		}
		rd.runs = append(rd.runs, m)
	}
	rd.setup = time.Since(t0)

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var sampler *heapSampler
	if tr != nil {
		sampler = startHeapSampler()
	}
	window := tr.begin("bench.window", -1, "batch")
	for _, m := range rd.runs {
		rd.attempted++
		id := tr.begin("engine.run", window, m.mech)
		if m.ctx != nil {
			m.ctx.parent = id
		}
		t := time.Now()
		m.res, m.err = m.eng.Run()
		m.elapsed = time.Since(t)
		tr.end(id)
		if m.err != nil {
			rd.failed++
		}
	}
	tr.end(window)
	rd.mem = memSince(&before)
	if sampler != nil {
		rd.peakMB = sampler.peakMB()
	}
	rd.heapMB = retainedHeapMB()

	for _, m := range rd.runs {
		if tr != nil {
			m.snap = m.eng.Metrics().Snapshot()
		}
		if err := checkBatch(m, bp); err != nil && rd.checkErr == nil {
			rd.checkErr = fmt.Errorf("batch-durable: %w", err)
		}
	}
	return rd, nil
}

func batchOutcome(rounds []*batchRound, tr *tracer) *outcome {
	o := &outcome{named: map[string]metric{}, layers: map[string]metric{}}
	n := len(rounds)
	var setup, heap []float64
	var mem memDelta
	commits := 0.0
	peak := 0.0
	for _, rd := range rounds {
		o.attempted += rd.attempted
		o.failed += rd.failed
		if o.checkErr == nil {
			o.checkErr = rd.checkErr
		}
		setup = append(setup, rd.setup.Seconds())
		heap = append(heap, rd.heapMB)
		mem.add(rd.mem)
		peak = max(peak, rd.peakMB)
		for _, m := range rd.runs {
			commits += float64(m.res.Firings)
		}
	}
	var rates, runMS []float64
	slowest := 0.0
	for i, mech := range mechanisms {
		var rate, dur []float64
		for _, rd := range rounds {
			m := rd.runs[i]
			rate = append(rate, float64(m.res.Firings)/m.elapsed.Seconds())
			dur = append(dur, ms(m.elapsed))
		}
		r, d := median(rate), median(dur)
		o.named["firings_per_s."+mech] = metric{r, "1/s", n}
		o.named["run_ms."+mech] = metric{d, "ms", n}
		rates = append(rates, r)
		runMS = append(runMS, d)
		slowest = max(slowest, d)
	}
	o.named["setup_s"] = metric{median(setup), "s", n}
	o.named["retained_heap_mb"] = metric{median(heap), "MB", n}
	o.e2e = map[string]metric{
		"setup_s":          o.named["setup_s"],
		"throughput_per_s": {geomean(rates), "1/s", n * len(mechanisms)},
		"completion_ms":    {geomean(runMS), "ms", n * len(mechanisms)},
		"tail_ms":          {slowest, "ms", n},
		"retained_heap_mb": o.named["retained_heap_mb"],
	}
	if tr == nil {
		return o
	}

	L := o.layers
	perRound := func(x float64) float64 { return x / float64(n) }
	engineSelf := tr.selfTimesBy(func(s span) string {
		if s.Name == "engine.run" {
			return s.Req
		}
		return ""
	})
	var snaps []obs.Snapshot
	var selects, syncs, appends []float64
	var candidates, armed, armedNS, bytes, checkpoints int64
	var checkpointTime time.Duration
	for _, mech := range mechanisms {
		L["engine.run_self_ms."+mech] = metric{perRound(ms(engineSelf[mech])), "ms", n}
	}
	for i, mech := range mechanisms {
		var selTotal, syncTotal time.Duration
		for _, rd := range rounds {
			m := rd.runs[i]
			snaps = append(snaps, m.snap)
			selects = append(selects, m.strat.selects.snapshot()...)
			selTotal += m.strat.selects.total()
			candidates += m.strat.candidates.Load()
			syncs = append(syncs, m.backend.syncs.snapshot()...)
			syncTotal += m.backend.syncs.total()
			appends = append(appends, m.backend.appends.snapshot()...)
			bytes += m.backend.bytes.Load()
			checkpoints += int64(len(m.backend.checkpoints.snapshot()))
			checkpointTime += m.backend.checkpoints.total()
			armed += m.clock.armed.Load()
			armedNS += m.clock.armedNS.Load()
		}
		L["cr.select_ms_total."+mech] = metric{perRound(ms(selTotal)), "ms", n}
		L["storage.sync_ms_total."+mech] = metric{perRound(ms(syncTotal)), "ms", n}
	}
	addEngineLayers(L, snaps, n)
	L["engine.backoff_armed"] = metric{perRound(float64(armed)), "count", n}
	L["engine.backoff_ms_total"] = metric{perRound(ms(time.Duration(armedNS))), "ms", n}
	L["cr.select_calls"] = metric{perRound(float64(len(selects))), "count", n}
	L["cr.candidates_per_select"] = metric{ratio(float64(candidates), float64(len(selects))), "count", len(selects)}
	L["cr.select_p50_ns"] = metric{quantile(selects, 0.5), "ns", len(selects)}
	L["storage.append_p50_us"] = metric{quantile(appends, 0.5) / 1e3, "us", len(appends)}
	L["storage.sync_p50_us"] = metric{quantile(syncs, 0.5) / 1e3, "us", len(syncs)}
	L["storage.sync_p99_us"] = metric{quantile(syncs, 0.99) / 1e3, "us", len(syncs)}
	L["storage.records_per_sync"] = metric{ratio(float64(len(appends)), float64(len(syncs))), "count", len(syncs)}
	L["storage.bytes_per_commit"] = metric{ratio(float64(bytes), commits), "bytes", int(commits)}
	L["storage.checkpoints"] = metric{perRound(float64(checkpoints)), "count", n}
	L["storage.checkpoint_ms_total"] = metric{perRound(ms(checkpointTime)), "ms", n}
	addGoLayers(L, mem, commits, peak, n)
	return o
}
