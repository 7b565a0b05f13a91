package storage

import (
	"bytes"
	"testing"

	"pdps/internal/wm"
)

// fuzzSegmentBytes builds a valid segment: the header, then framed
// records covering adds with every value type and a remove.
func fuzzSegmentBytes() []byte {
	s := wm.NewStore()
	w1 := s.Insert("part", map[string]wm.Value{"id": wm.Int(1), "name": wm.Str("axle")})
	w2 := s.Insert("tally", map[string]wm.Value{"ratio": wm.Float(0.5), "on": wm.Bool(true), "sym": wm.Sym("ready")})
	recs := []*Record{
		{Delta: &wm.Delta{Adds: []*wm.WME{w1, w2}}},
		{Rule: "drop", Inst: "drop|1@1", WMEs: []string{w1.String()}, Delta: &wm.Delta{Removes: []*wm.WME{w1}}},
	}
	out := []byte(segMagic)
	for _, r := range recs {
		out = wm.AppendFrame(out, EncodeRecord(nil, r))
	}
	return out
}

// encodeAll renders records canonically so two reads can be compared
// byte for byte.
func encodeAll(recs []*Record) [][]byte {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = EncodeRecord(nil, r)
	}
	return out
}

// FuzzReadSegment checks the segment reader recovery relies on: it
// never panics, its valid prefix lies within the input, and that
// prefix on its own reads back cleanly as exactly the same records —
// so truncating a segment to the valid length, as recovery does,
// loses nothing the scan accepted.
func FuzzReadSegment(f *testing.F) {
	valid := fuzzSegmentBytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(segMagic[:4]))                           // torn header
	f.Add(valid[:len(valid)-5])                           // torn tail
	f.Add(append(append([]byte(nil), valid...), 0, 0, 0)) // zero-filled tail
	for _, i := range []int{3, len(segMagic) + 4, len(segMagic) + 20, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := ReadSegment(bytes.NewReader(data))
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid prefix %d outside input of %d bytes (err %v)", n, len(data), err)
		}
		again, n2, err2 := ReadSegment(bytes.NewReader(data[:n]))
		if err2 != nil {
			t.Fatalf("valid prefix of %d bytes does not re-read: %v", n, err2)
		}
		if n2 != n {
			t.Fatalf("re-read valid prefix = %d, want %d", n2, n)
		}
		a, b := encodeAll(recs), encodeAll(again)
		if len(a) != len(b) {
			t.Fatalf("re-read %d records, want %d", len(b), len(a))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("record %d differs on re-read", i)
			}
		}
	})
}
