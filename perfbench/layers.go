package main

import (
	"pdps/internal/obs"
)

// perLayer lists the per-layer metrics a traced run reports, in
// BENCHMARK.json order. A layer a workload does not exercise reports 0:
// no work was done there. README.md maps each to the end-to-end metric
// it should move.
var perLayer = []struct{ name, unit string }{
	{"server.assert_p50_ms", "ms"}, {"server.assert_p99_ms", "ms"},
	{"server.run_p50_ms", "ms"}, {"server.run_p99_ms", "ms"},
	{"server.create_ms", "ms"}, {"server.trace_ms", "ms"}, {"server.close_ms", "ms"},
	{"server.bytes_out_per_event", "bytes"}, {"server.frames_out_per_event", "count"},
	{"server.backpressure_total", "count"},
	{"engine.run_self_ms.single", "ms"}, {"engine.run_self_ms.static", "ms"},
	{"engine.run_self_ms.2pl", "ms"}, {"engine.run_self_ms.rcrawa", "ms"},
	{"engine.commit_latency_p50_us", "us"}, {"engine.commit_latency_p99_us", "us"},
	{"engine.commit_ratio", "ratio"},
	{"engine.backoff_armed", "count"}, {"engine.backoff_ms_total", "ms"},
	{"engine.refresh_delta_share", "ratio"},
	{"lock.acquires_per_commit", "count"}, {"lock.conflicts_per_commit", "count"},
	{"lock.wait_p50_us", "us"}, {"lock.wait_p99_us", "us"},
	{"lock.deadlocks", "count"}, {"lock.rc_victims", "count"},
	{"cr.select_calls", "count"}, {"cr.candidates_per_select", "count"}, {"cr.select_p50_ns", "ns"},
	{"cr.select_ms_total.single", "ms"}, {"cr.select_ms_total.static", "ms"},
	{"cr.select_ms_total.2pl", "ms"}, {"cr.select_ms_total.rcrawa", "ms"},
	{"match.update_p50_us", "us"}, {"match.conflict_set_peak", "count"},
	{"rete.index_probes_per_commit", "count"}, {"rete.alpha_probes_per_wme", "count"},
	{"wm.reads_per_commit", "count"}, {"wm.writes_per_commit", "count"},
	{"storage.append_p50_us", "us"}, {"storage.sync_p50_us", "us"}, {"storage.sync_p99_us", "us"},
	{"storage.records_per_sync", "count"}, {"storage.bytes_per_commit", "bytes"},
	{"storage.checkpoints", "count"}, {"storage.checkpoint_ms_total", "ms"},
	{"storage.sync_ms_total.single", "ms"}, {"storage.sync_ms_total.static", "ms"},
	{"storage.sync_ms_total.2pl", "ms"}, {"storage.sync_ms_total.rcrawa", "ms"},
	{"trace.check_ms", "ms"}, {"trace.check_ns_per_commit", "ns"}, {"trace.check_alloc_mb", "MB"},
	{"trace.events_streamed_per_run", "count"},
	{"repl.primary_run_ms", "ms"}, {"repl.choices_per_commit", "count"},
	{"repl.follower_verify_ms", "ms"}, {"repl.lag_p99_records", "count"}, {"repl.catchup_ms", "ms"},
	{"go.alloc_bytes_per_op", "bytes"}, {"go.mallocs_per_op", "count"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms_total", "ms"}, {"go.heap_peak_mb", "MB"},
	{"spans.overhead_share", "ratio"}, {"spans.unattributed_share", "ratio"},
}

// fillLayers adds a zero for every per-layer metric the workload did
// not measure, so every traced run reports the full set.
func fillLayers(L map[string]metric) {
	for _, p := range perLayer {
		if _, ok := L[p.name]; !ok {
			L[p.name] = metric{0, p.unit, 0}
		}
	}
}

// addEngineLayers derives the engine, lock, match, rete and wm metrics
// from the engine registry snapshots of a phase's rounds. Event counts
// are per round.
func addEngineLayers(L map[string]metric, snaps []obs.Snapshot, rounds int) {
	commits := sumCounters(snaps, "engine_commits_total")
	aborts := sumCounters(snaps, "engine_aborts_total")
	skips := sumCounters(snaps, "engine_skips_total")
	n := int(commits)
	// Serial engines do not record the fire→commit latency: their
	// firing is the commit critical section itself, so fall back to it.
	lat := histMerge(snaps, "engine_commit_latency_ns")
	if lat.Count == 0 {
		lat = histMerge(snaps, "engine_commit_apply_ns")
	}
	L["engine.commit_latency_p50_us"] = metric{float64(lat.Quantile(0.5)) / 1e3, "us", int(lat.Count)}
	L["engine.commit_latency_p99_us"] = metric{float64(lat.Quantile(0.99)) / 1e3, "us", int(lat.Count)}
	L["engine.commit_ratio"] = metric{ratio(commits, commits+aborts+skips), "ratio", n}
	delta := sumCounters(snaps, "engine_refresh_delta_total")
	L["engine.refresh_delta_share"] = metric{ratio(delta, delta+sumCounters(snaps, "engine_refresh_snapshot_total")), "ratio", int(delta)}

	L["lock.acquires_per_commit"] = metric{ratio(sumCounters(snaps, "lock_acquires_total"), commits), "count", n}
	L["lock.conflicts_per_commit"] = metric{ratio(sumCounters(snaps, "lock_conflicts_total"), commits), "count", n}
	wait := histMerge(snaps, "lock_wait_ns")
	L["lock.wait_p50_us"] = metric{float64(wait.Quantile(0.5)) / 1e3, "us", int(wait.Count)}
	L["lock.wait_p99_us"] = metric{float64(wait.Quantile(0.99)) / 1e3, "us", int(wait.Count)}
	L["lock.deadlocks"] = metric{sumCounters(snaps, "lock_deadlocks_total") / float64(rounds), "count", rounds}
	L["lock.rc_victims"] = metric{sumCounters(snaps, "lock_rc_victims_total") / float64(rounds), "count", rounds}

	upd := histMerge(snaps, "match_update_ns")
	L["match.update_p50_us"] = metric{float64(upd.Quantile(0.5)) / 1e3, "us", int(upd.Count)}
	var peak int64
	for _, s := range snaps {
		_, p := s.Gauge("match_conflict_set_size")
		peak = max(peak, p)
	}
	L["match.conflict_set_peak"] = metric{float64(peak), "count", len(snaps)}
	L["rete.index_probes_per_commit"] = metric{ratio(sumCounters(snaps, "rete_index_probes_total"), commits), "count", n}
	L["rete.alpha_probes_per_wme"] = metric{ratio(sumCounters(snaps, "rete_alpha_probes_total"),
		sumCounters(snaps, "match_updates_total")), "count", int(sumCounters(snaps, "match_updates_total"))}
	L["wm.reads_per_commit"] = metric{ratio(sumCounters(snaps, "wm_reads_total"), commits), "count", n}
	L["wm.writes_per_commit"] = metric{ratio(sumCounters(snaps, "wm_writes_total"), commits), "count", n}
}

// addGoLayers adds the Go runtime's figures over the timed phases of a
// phase's rounds; ops is the workload's unit of work (events or
// commits). GC figures are per round.
func addGoLayers(L map[string]metric, m memDelta, ops, heapPeakMB float64, rounds int) {
	L["go.alloc_bytes_per_op"] = metric{ratio(float64(m.allocBytes), ops), "bytes", int(ops)}
	L["go.mallocs_per_op"] = metric{ratio(float64(m.mallocs), ops), "count", int(ops)}
	L["go.gc_cycles"] = metric{float64(m.gcCycles) / float64(rounds), "count", rounds}
	L["go.gc_pause_ms_total"] = metric{ms(m.gcPause) / float64(rounds), "ms", rounds}
	L["go.heap_peak_mb"] = metric{heapPeakMB, "MB", 1}
}
