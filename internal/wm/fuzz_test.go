package wm

import (
	"bytes"
	"testing"
)

// fuzzStore builds a small store with every value type for seeding.
func fuzzStore() *Store {
	s := NewStore()
	s.Insert("part", map[string]Value{"id": Int(1), "stage": Int(0), "name": Str("axle")})
	s.Insert("tally", map[string]Value{"n": Int(0), "ratio": Float(0.5)})
	s.Insert("flag", map[string]Value{"on": Bool(true), "sym": Sym("ready")})
	return s
}

func fuzzSnapshotBytes() []byte {
	var buf bytes.Buffer
	if err := fuzzStore().WriteSnapshot(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot checks the snapshot reader never panics on
// arbitrary bytes and that anything it accepts re-serializes
// canonically (write → read → write is a fixed point).
func FuzzReadSnapshot(f *testing.F) {
	valid := fuzzSnapshotBytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	for _, i := range []int{8, 12, 20} {
		if i < len(valid) {
			flipped := append([]byte(nil), valid...)
			flipped[i] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := s.WriteSnapshot(&first); err != nil {
			t.Fatalf("accepted snapshot does not re-serialize: %v", err)
		}
		s2, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized snapshot unreadable: %v", err)
		}
		var second bytes.Buffer
		if err := s2.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("snapshot serialization is not canonical")
		}
	})
}
