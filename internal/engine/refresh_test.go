package engine

import (
	"testing"

	"pdps/internal/lock"
)

// TestRefreshTakesDeltaPath pins the delta pipeline between the
// incremental matchers and the Parallel committer: refresh must drain
// the conflict set's change journal (the O(|delta|) branch) rather
// than fall back to snapshot reconciliation on every commit. At most
// one snapshot refresh is expected — the initial full-membership drain
// at startup.
func TestRefreshTakesDeltaPath(t *testing.T) {
	for _, matcher := range []string{"rete", "treat"} {
		p := pipelineProgram(8, 4)
		e, err := NewParallel(p, lock.SchemeRcRaWa, Options{Np: 4, Matcher: matcher})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", matcher, err)
		}
		if res.Firings != 32 {
			t.Fatalf("%s: firings = %d, want 32", matcher, res.Firings)
		}
		reg := e.Metrics()
		snap := reg.Counter("engine_refresh_snapshot_total").Value()
		delta := reg.Counter("engine_refresh_delta_total").Value()
		if snap > 1 {
			t.Errorf("%s: %d snapshot refreshes (want at most the initial one); deltas=%d",
				matcher, snap, delta)
		}
		if delta == 0 {
			t.Errorf("%s: journal-drain branch never taken (snapshots=%d)", matcher, snap)
		}
	}
}
