package wm

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	s.Insert("part", attrs("id", 1, "status", "ready", "w", 2.5))
	s.Insert("machine", attrs("name", Str("mill #1"), "free", true))
	w3 := s.Insert("part", attrs("id", 2))
	s.Remove(w3.ID)
	s.Insert("part", attrs("id", 3))

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), s.Len())
	}
	for _, orig := range s.All() {
		loaded, ok := got.Get(orig.ID)
		if !ok {
			t.Fatalf("WME %d missing after reload", orig.ID)
		}
		if !loaded.EqualContent(orig) || loaded.TimeTag != orig.TimeTag {
			t.Fatalf("WME %d changed: %v vs %v", orig.ID, loaded, orig)
		}
	}
	// Counters continue: the next insert gets a fresh ID and tag.
	n := got.Insert("part", attrs("id", 9))
	for _, orig := range s.All() {
		if n.ID == orig.ID {
			t.Fatal("reloaded store reused an ID")
		}
		if n.TimeTag <= orig.TimeTag {
			t.Fatal("reloaded store reused a time tag")
		}
	}
}

func TestSnapshotBadInput(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("NOTASNAP")); err == nil {
		t.Fatal("bad magic must error")
	}
	if _, err := ReadSnapshot(strings.NewReader("PD")); err == nil {
		t.Fatal("short header must error")
	}
	// Truncated body.
	s := NewStore()
	s.Insert("a", attrs("v", 1))
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadSnapshot(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot must error")
	}
}

// TestDeltaRoundTripReproducesStore runs transactions against a live
// store, encodes each commit delta, and recovers a second store from
// the starting snapshot by decoding and re-applying every delta: the
// result must equal the live store, time tags and counters included.
func TestDeltaRoundTripReproducesStore(t *testing.T) {
	live := NewStore()
	live.Insert("counter", attrs("n", 0))
	var snap bytes.Buffer
	if err := live.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for i := 0; i < 10; i++ {
		tx := live.Begin()
		c := tx.ByClass("counter")[0]
		if _, err := tx.Modify(c.ID, attrs("n", i+1)); err != nil {
			t.Fatal(err)
		}
		tx.Insert("log", attrs("step", i))
		if i%3 == 2 {
			logs := tx.ByClass("log")
			if err := tx.Remove(logs[0].ID); err != nil {
				t.Fatal(err)
			}
		}
		d, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, EncodeDelta(nil, d))
	}

	recovered, err := ReadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		d, err := DecodeDelta(body)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if err := recovered.ApplyLogged(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	if recovered.Len() != live.Len() {
		t.Fatalf("recovered Len = %d, want %d", recovered.Len(), live.Len())
	}
	for _, orig := range live.All() {
		got, ok := recovered.Get(orig.ID)
		if !ok || !got.EqualContent(orig) || got.TimeTag != orig.TimeTag {
			t.Fatalf("WME %d mismatch after recovery: %v vs %v", orig.ID, got, orig)
		}
	}
	// Counters restored: no ID reuse after recovery.
	n := recovered.Insert("x", nil)
	if _, clash := live.Get(n.ID); clash {
		t.Fatal("recovered store reused an ID")
	}
	// Trailing bytes after a delta body are rejected.
	if _, err := DecodeDelta(append(bodies[0], 0)); err == nil {
		t.Fatal("delta with trailing bytes must error")
	}
}

// TestApplyLoggedRemoveOfAbsentFails checks that a logged delta applied
// against the wrong base store errors: a remove with no target, or an
// add whose ID is already present, is mid-log corruption.
func TestApplyLoggedRemoveOfAbsentFails(t *testing.T) {
	live := NewStore()
	w := live.Insert("a", attrs("v", 1))
	tx := live.Begin()
	if err := tx.Remove(w.ID); err != nil {
		t.Fatal(err)
	}
	rm, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStore().ApplyLogged(rm); err == nil {
		t.Fatal("remove of an absent WME must error")
	}
	add := &Delta{Adds: []*WME{w}}
	dup := NewStore()
	if err := dup.ApplyLogged(add); err != nil {
		t.Fatal(err)
	}
	if err := dup.ApplyLogged(add); err == nil {
		t.Fatal("add of a duplicate WME must error")
	}
}
