package detsched

import (
	"bytes"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/sched"
	"pdps/internal/workload"
)

// TestAdaptiveReplanDeterministic is the acceptance test for adaptive
// Rete replanning under the deterministic scheduler: on a workload
// whose run-time cardinalities contradict the static plan
// (JoinHeavySkewed), the network must replan mid-run, and two
// identical seeded runs must still produce byte-identical commit
// sequences and metric snapshots — the replan trigger reads only
// deterministic inputs (activation counts, memory sizes, sorted rule
// names), so replay reproduces every chain swap.
func TestAdaptiveReplanDeterministic(t *testing.T) {
	prog := workload.JoinHeavySkewed(128, 4, 8)
	// The subtest is named for the matcher layout: one match shard,
	// the only layout the engine has.
	t.Run("shards=1", func(t *testing.T) {
		for seed := int64(0); seed < 2; seed++ {
			cfg := Config{Scheme: lock.SchemeRcRaWa, Np: 2, AdaptiveRete: true}
			a := Run(prog, cfg, sched.NewRandom(seed))
			b := Run(prog, cfg, sched.NewRandom(seed))
			if err := Check(prog, a); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got, want := a.Result.Firings, 128/8; got != want {
				t.Fatalf("seed %d: firings = %d, want %d", seed, got, want)
			}
			if ka, kb := SeqKey(a.Commits()), SeqKey(b.Commits()); ka != kb {
				t.Fatalf("seed %d: commit sequences diverge:\n%s\n--- vs ---\n%s", seed, ka, kb)
			}
			ja, err := a.Metrics.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			jb, err := b.Metrics.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatalf("seed %d: metric snapshots differ:\n%s\n--- vs ---\n%s", seed, ja, jb)
			}
			// The run must actually have replanned — otherwise this
			// test proves nothing about chain-swap determinism.
			if n := a.Metrics.Counter("rete_replan_total"); n == 0 {
				t.Fatalf("seed %d: no replan happened on the skewed workload", seed)
			}
		}
	})
}

// TestAdaptiveOffMatchesStaticTrace pins the ±0 guarantee for the
// default configuration: with AdaptiveRete off the network never
// replans, even on the adversarial workload.
func TestAdaptiveOffMatchesStaticTrace(t *testing.T) {
	prog := workload.JoinHeavySkewed(64, 2, 8)
	out := Run(prog, Config{Scheme: lock.Scheme2PL, Np: 2}, sched.NewRandom(1))
	if err := Check(prog, out); err != nil {
		t.Fatal(err)
	}
	if n := out.Metrics.Counter("rete_replan_total"); n != 0 {
		t.Fatalf("rete_replan_total = %d with AdaptiveRete off", n)
	}
}
