package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdps/internal/obs"
	"pdps/internal/server"
)

// tenant-stream shape. A closed loop: streamConns connections, each
// driven by one goroutine with one request in flight, round-robin over
// its share of the tenants. Sessions are long (thousands of events),
// so costs that grow with session history show.
const (
	streamConns      = 2
	streamTenants    = 8
	streamEvents     = 1500 // events per tenant session
	streamBatch      = 8    // events per assert
	streamBatches    = (streamEvents + streamBatch - 1) / streamBatch
	streamRuleAbsorb = 0
	streamRuleClear  = 1
)

// streamProgram is the absorb/clear program: each event is absorbed
// into a done marker that a second rule clears, so every event yields
// exactly two commits and working memory drains to empty.
func streamProgram(tenant string) string {
	return fmt.Sprintf(`
(p absorb (event ^tenant %s ^seq <s>) --> (remove 1) (make done ^tenant %s ^seq <s>))
(p clear  (done  ^tenant %s ^seq <s>) --> (remove 1))`, tenant, tenant, tenant)
}

// tenantState is one tenant's inputs and what the service returned.
type tenantState struct {
	name string
	id   string
	seqs []int // ingest order: a seeded permutation of 0..streamEvents-1
	// commits encodes each streamed commit as seq*2+rule (-1 when the
	// event names neither rule or carries no seq).
	commits    []int
	nonQuiesce int // runs that returned before quiescence
	wmes       []string
	snap       obs.Snapshot
}

// recordCommits appends the compact form of the commit events.
func (t *tenantState) recordCommits(events []server.TraceEvent) {
	for _, e := range events {
		if e.Kind != "commit" {
			continue
		}
		code := -1
		seq, ok := seqOf(e.WMEs)
		switch {
		case ok && e.Rule == "absorb":
			code = seq*2 + streamRuleAbsorb
		case ok && e.Rule == "clear":
			code = seq*2 + streamRuleClear
		}
		t.commits = append(t.commits, code)
	}
}

// seqOf extracts the ^seq value from the first matched WME fingerprint.
func seqOf(wmes []string) (int, bool) {
	if len(wmes) == 0 {
		return 0, false
	}
	_, rest, ok := strings.Cut(wmes[0], "^seq ")
	if !ok {
		return 0, false
	}
	end := strings.IndexAny(rest, " )")
	if end < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(rest[:end])
	return n, err == nil
}

// checkTenant is the program-specific, linear-time form of Definition
// 3.2 for the absorb/clear program: every ingested seq is absorbed
// exactly once and then cleared exactly once, nothing else commits,
// every run reached quiescence and working memory ends empty.
func checkTenant(t *tenantState) error {
	if t.nonQuiesce > 0 {
		return fmt.Errorf("tenant %s: %d runs not quiescent", t.name, t.nonQuiesce)
	}
	if len(t.wmes) != 0 {
		return fmt.Errorf("tenant %s: %d WMEs left, first %s", t.name, len(t.wmes), t.wmes[0])
	}
	state := make(map[int]int, len(t.seqs)) // 1 ingested, 2 absorbed, 3 cleared
	for _, s := range t.seqs {
		state[s] = 1
	}
	for i, c := range t.commits {
		if c < 0 {
			return fmt.Errorf("tenant %s: commit %d is not an absorb or clear of an event", t.name, i)
		}
		seq, rule := c/2, c%2
		want := 1 + rule
		if state[seq] != want {
			return fmt.Errorf("tenant %s: commit %d: %s of seq %d out of order (state %d)",
				t.name, i, [2]string{"absorb", "clear"}[rule], seq, state[seq])
		}
		state[seq] = want + 1
	}
	for seq, st := range state {
		if st != 3 {
			return fmt.Errorf("tenant %s: seq %d ended in state %d, want cleared", t.name, seq, st)
		}
	}
	return nil
}

// driver is one load goroutine's tally: its requests and the batch
// round trips it measured.
type driver struct {
	attempted, failed int
	err               error
	batches, late     []float64
}

// call makes one client request, timed as a span, and counts it.
func (d *driver) call(tr *tracer, name, req string, parent int, f func() error) bool {
	d.attempted++
	id := tr.begin(name, parent, req)
	err := f()
	tr.end(id)
	if err != nil {
		d.failed++
		if d.err == nil {
			d.err = fmt.Errorf("%s %s: %w", name, req, err)
		}
		return false
	}
	return true
}

// streamRound holds one round's measurements.
type streamRound struct {
	setup      time.Duration
	stream     time.Duration // streaming phase: first assert to last run reply
	events     int
	batches    []float64 // batch round trips, ms
	late       []float64 // those of the last quarter of each session
	heapMB     float64
	heapPeakMB float64
	mem        memDelta
	attempted  int
	failed     int
	checkErr   error
	tenants    []*tenantState
	serverSnap obs.Snapshot
}

func runTenantStream(seed int64, budget time.Duration, tr *tracer, _ string) (*outcome, error) {
	var rounds []*streamRound
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		rd, err := streamOnce(seed*1000+int64(r), tr)
		if err != nil {
			return nil, err
		}
		// Keep only the figures, so that a later round's retained heap
		// holds only its own state.
		for _, t := range rd.tenants {
			t.seqs, t.commits, t.wmes = nil, nil, nil
		}
		rounds = append(rounds, rd)
	}
	return streamOutcome(rounds, tr), nil
}

// streamOnce runs one round: boot a loopback server, create the tenant
// sessions, stream every tenant's events, then drain traces, check and
// close.
func streamOnce(seed int64, tr *tracer) (*streamRound, error) {
	rng := rand.New(rand.NewSource(seed))
	rd := &streamRound{}
	t0 := time.Now()
	srv := server.New(server.Config{MaxSessions: streamTenants + 8})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("tenant-stream: listen: %w", err)
	}
	defer srv.Close()
	clients := make([]*server.Client, streamConns)
	for i := range clients {
		c, err := server.Dial(srv.Addr().String())
		if err != nil {
			return nil, fmt.Errorf("tenant-stream: dial: %w", err)
		}
		defer c.Close()
		clients[i] = c
	}
	tenants := make([]*tenantState, streamTenants)
	for i := range tenants {
		tenants[i] = &tenantState{name: fmt.Sprintf("t%d", rng.Intn(1_000_000)*streamTenants+i), seqs: rng.Perm(streamEvents)}
	}
	rd.tenants = tenants

	// Each driver goroutine owns tenants g, g+conns, ... and counts its
	// own requests; the phases are separated by barriers so that set-up,
	// streaming and teardown are timed apart.
	drivers := make([]driver, streamConns)
	var created, streamed sync.WaitGroup
	startStream := make(chan struct{})
	var done sync.WaitGroup
	created.Add(streamConns)
	streamed.Add(streamConns)
	done.Add(streamConns)
	for g := 0; g < streamConns; g++ {
		go func(g int) {
			defer done.Done()
			d := &drivers[g]
			c := clients[g]
			var mine []*tenantState
			for i := g; i < streamTenants; i += streamConns {
				mine = append(mine, tenants[i])
			}
			for _, t := range mine {
				d.call(tr, "server.create", t.name, -1, func() (err error) {
					t.id, _, _, err = c.Create(streamProgram(t.name), server.SessionOptions{})
					return err
				})
			}
			created.Done()
			<-startStream
			window := tr.begin("bench.window", -1, fmt.Sprintf("conn%d", g))
			tuples := make([]string, 0, streamBatch)
			for b := 0; b < streamBatches && d.err == nil; b++ {
				for _, t := range mine {
					tuples = tuples[:0]
					for _, s := range t.seqs[b*streamBatch : min((b+1)*streamBatch, streamEvents)] {
						tuples = append(tuples, fmt.Sprintf("(event ^tenant %s ^seq %d)", t.name, s))
					}
					req := fmt.Sprintf("%s/%d", t.name, b)
					bt := time.Now()
					ok := d.call(tr, "server.assert", req, window, func() error {
						_, err := c.Assert(t.id, tuples...)
						return err
					}) && d.call(tr, "server.run", req, window, func() error {
						res, err := c.Run(t.id, 0)
						if err == nil {
							if !res.Quiescent {
								t.nonQuiesce++
							}
							t.recordCommits(res.Events)
						}
						return err
					})
					if !ok {
						break
					}
					rtt := ms(time.Since(bt))
					d.batches = append(d.batches, rtt)
					if 4*b >= 3*streamBatches {
						d.late = append(d.late, rtt)
					}
				}
			}
			tr.end(window)
			streamed.Done()
		}(g)
	}
	created.Wait()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var sampler *heapSampler
	if tr != nil {
		sampler = startHeapSampler()
	}
	streamStart := time.Now()
	rd.setup = streamStart.Sub(t0)
	close(startStream)
	streamed.Wait()
	rd.stream = time.Since(streamStart)
	rd.mem = memSince(&before)
	if sampler != nil {
		rd.heapPeakMB = sampler.peakMB()
	}
	rd.heapMB = retainedHeapMB()
	done.Wait()

	// Teardown, outside the timed window: drain each trace tail, read
	// working memory (and, traced, the session's engine metrics), close.
	for g := range drivers {
		d := &drivers[g]
		c := clients[g]
		for i := g; i < streamTenants; i += streamConns {
			t := tenants[i]
			if t.id == "" {
				continue
			}
			d.call(tr, "server.trace", t.name, -1, func() error {
				tail, err := c.Trace(t.id)
				t.recordCommits(tail)
				return err
			})
			d.call(tr, "server.wmes", t.name, -1, func() (err error) {
				t.wmes, err = c.WMEs(t.id)
				return err
			})
			if tr != nil {
				d.call(tr, "server.metrics", t.name, -1, func() error {
					raw, err := c.Metrics(t.id)
					if err == nil {
						err = json.Unmarshal(raw, &t.snap)
					}
					return err
				})
			}
			d.call(tr, "server.close", t.name, -1, func() error { return c.CloseSession(t.id) })
		}
	}
	for _, d := range drivers {
		rd.attempted += d.attempted
		rd.failed += d.failed
		rd.batches = append(rd.batches, d.batches...)
		rd.late = append(rd.late, d.late...)
		if rd.checkErr == nil && d.err != nil {
			rd.checkErr = d.err
		}
	}
	for _, t := range tenants {
		rd.events += len(t.seqs)
		if rd.checkErr == nil {
			rd.checkErr = checkTenant(t)
		}
	}
	if tr != nil {
		rd.serverSnap = srv.Metrics().Snapshot()
	}
	return rd, nil
}

func streamOutcome(rounds []*streamRound, tr *tracer) *outcome {
	o := &outcome{named: map[string]metric{}, layers: map[string]metric{}}
	var setup, rate, heap, p50, p99, late []float64
	var mem memDelta
	events, batches := 0, 0
	for _, rd := range rounds {
		o.attempted += rd.attempted
		o.failed += rd.failed
		if o.checkErr == nil {
			o.checkErr = rd.checkErr
		}
		setup = append(setup, rd.setup.Seconds())
		rate = append(rate, float64(rd.events)/rd.stream.Seconds())
		heap = append(heap, rd.heapMB)
		p50 = append(p50, quantile(rd.batches, 0.5))
		p99 = append(p99, quantile(rd.batches, 0.99))
		late = append(late, quantile(rd.late, 0.5))
		batches += len(rd.batches)
		mem.add(rd.mem)
		events += rd.events
	}
	// Batch latencies are taken per round and the median round
	// reported, so that a burst of machine noise in one round does not
	// set the run's tail.
	n := len(rounds)
	o.named["setup_s"] = metric{median(setup), "s", n}
	o.named["events_per_s"] = metric{median(rate), "1/s", n}
	o.named["batch_p50_ms"] = metric{median(p50), "ms", batches}
	o.named["batch_p99_ms"] = metric{median(p99), "ms", batches}
	o.named["batch_late_p50_ms"] = metric{median(late), "ms", batches / 4}
	o.named["retained_heap_mb"] = metric{median(heap), "MB", n}
	o.e2e = map[string]metric{
		"setup_s":          o.named["setup_s"],
		"throughput_per_s": o.named["events_per_s"],
		"completion_ms":    o.named["batch_p50_ms"],
		"tail_ms":          o.named["batch_late_p50_ms"],
		"retained_heap_mb": o.named["retained_heap_mb"],
	}
	if tr == nil {
		return o
	}
	L := o.layers
	msq := func(name string, q float64) (float64, int) {
		d := tr.durations(name)
		return quantile(d, q) / 1e6, len(d)
	}
	for _, op := range []string{"assert", "run"} {
		v, k := msq("server."+op, 0.5)
		L["server."+op+"_p50_ms"] = metric{v, "ms", k}
		v, k = msq("server."+op, 0.99)
		L["server."+op+"_p99_ms"] = metric{v, "ms", k}
	}
	for _, op := range []string{"create", "trace", "close"} {
		v, k := msq("server."+op, 0.5)
		L["server."+op+"_ms"] = metric{v, "ms", k}
	}
	var srvSnaps, engSnaps []obs.Snapshot
	for _, rd := range rounds {
		srvSnaps = append(srvSnaps, rd.serverSnap)
		for _, t := range rd.tenants {
			engSnaps = append(engSnaps, t.snap)
		}
	}
	ev := float64(events)
	L["server.bytes_out_per_event"] = metric{sumCounters(srvSnaps, "server_bytes_out_total") / ev, "bytes", events}
	L["server.frames_out_per_event"] = metric{sumCounters(srvSnaps, "server_frames_out_total") / ev, "count", events}
	L["server.backpressure_total"] = metric{sumCounters(srvSnaps, "server_ingest_backpressure_total") / float64(n), "count", n}
	runs := 0.0
	for _, s := range srvSnaps {
		for _, p := range s.Counters {
			if p.Name == "server_requests_total" && p.Labels["type"] == "run" {
				runs += float64(p.Value)
			}
		}
	}
	L["trace.events_streamed_per_run"] = metric{ratio(sumCounters(srvSnaps, "server_trace_events_streamed_total"), runs), "count", int(runs)}
	addEngineLayers(L, engSnaps, n)
	peak := 0.0
	for _, rd := range rounds {
		peak = max(peak, rd.heapPeakMB)
	}
	addGoLayers(L, mem, ev, peak, n)
	return o
}
