package wm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Persistence gives working memory the "knowledge persistence" the
// paper's introduction motivates: point-in-time snapshots, the codec
// for commit deltas, and the CRC-framed record stream that carries
// them. internal/storage builds its segment logs from these pieces; a
// store is recovered by loading the latest snapshot and re-applying
// the logged deltas with ApplyLogged, and the frame scanner detects
// torn tails so recovery stops cleanly at the last complete record.

const snapshotMagic = "PDPSSNP1"

// WriteSnapshot serialises the store's current contents, including the
// ID and recency counters, so recovery continues the same sequences.
func (s *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	all := s.All() // deterministic order: by ID
	writeU64(bw, uint64(s.nextID.Load()))
	writeU64(bw, s.clock.Load())
	writeU64(bw, uint64(len(all)))
	for _, wme := range all {
		if err := writeWME(bw, wme); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a store from a snapshot stream.
func ReadSnapshot(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("wm: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("wm: bad snapshot magic %q", magic)
	}
	s := NewStore()
	nextID, err := readU64(br)
	if err != nil {
		return nil, err
	}
	clock, err := readU64(br)
	if err != nil {
		return nil, err
	}
	count, err := readU64(br)
	if err != nil {
		return nil, err
	}
	s.nextID.Store(int64(nextID))
	s.clock.Store(clock)
	for i := uint64(0); i < count; i++ {
		w, err := readWME(br)
		if err != nil {
			return nil, fmt.Errorf("wm: snapshot WME %d: %w", i, err)
		}
		s.add(w)
	}
	return s, nil
}

// EncodeDelta appends the log encoding of a commit delta to b: removes
// as (id, timetag) pairs, adds as full WMEs.
func EncodeDelta(b []byte, d *Delta) []byte {
	b = appendU64(b, uint64(len(d.Removes)))
	for _, w := range d.Removes {
		b = appendU64(b, uint64(w.ID))
		b = appendU64(b, w.TimeTag)
	}
	b = appendU64(b, uint64(len(d.Adds)))
	for _, w := range d.Adds {
		b = appendWME(b, w)
	}
	return b
}

// DecodeDelta parses an EncodeDelta body. Removed WMEs come back as
// stubs carrying only ID and TimeTag (the log does not keep their
// content); adds are complete. The whole body must be consumed.
func DecodeDelta(body []byte) (*Delta, error) {
	p := &byteReader{b: body}
	d, err := decodeDelta(p)
	if err != nil {
		return nil, err
	}
	if p.pos != len(body) {
		return nil, fmt.Errorf("wm: delta record: %d trailing bytes", len(body)-p.pos)
	}
	return d, nil
}

// decodeDelta parses a delta at the reader's position, leaving any
// following bytes (used when a delta is embedded in a larger record).
func decodeDelta(p *byteReader) (*Delta, error) {
	d := &Delta{}
	nRem, err := p.u64()
	if err != nil {
		return nil, err
	}
	if nRem > 1<<24 {
		return nil, fmt.Errorf("wm: absurd remove count %d", nRem)
	}
	for i := uint64(0); i < nRem; i++ {
		id, err := p.u64()
		if err != nil {
			return nil, err
		}
		tag, err := p.u64()
		if err != nil {
			return nil, err
		}
		d.Removes = append(d.Removes, &WME{ID: int64(id), TimeTag: tag})
	}
	nAdd, err := p.u64()
	if err != nil {
		return nil, err
	}
	if nAdd > 1<<24 {
		return nil, fmt.Errorf("wm: absurd add count %d", nAdd)
	}
	for i := uint64(0); i < nAdd; i++ {
		w, err := p.wme()
		if err != nil {
			return nil, err
		}
		d.Adds = append(d.Adds, w)
	}
	return d, nil
}

// ApplyLogged re-applies a decoded delta exactly, preserving IDs and
// time tags rather than re-assigning them. Recovery is sequential, so
// the high-water counter updates need no compare-and-swap loop. The
// delta must match the store state it was logged against: a remove of
// an absent WME or an add of an already-present ID is an error, and
// the store is left partially updated (callers treat this as fatal
// mid-log corruption, not a recoverable tail).
func (s *Store) ApplyLogged(d *Delta) error {
	for _, w := range d.Removes {
		if _, ok := s.Remove(w.ID); !ok {
			return fmt.Errorf("remove of absent WME %d", w.ID)
		}
	}
	for _, w := range d.Adds {
		if _, dup := s.Get(w.ID); dup {
			return fmt.Errorf("add of duplicate WME %d", w.ID)
		}
		s.add(w)
		if w.ID > s.nextID.Load() {
			s.nextID.Store(w.ID)
		}
		if w.TimeTag > s.clock.Load() {
			s.clock.Store(w.TimeTag)
		}
	}
	return nil
}

// --- framed record streams ---

// maxRecordBytes bounds a single framed record; larger length fields
// are treated as corruption (or a torn frame, if at the tail).
const maxRecordBytes = 1 << 30

// AppendFrame appends one framed record to dst: an 8-byte big-endian
// body length, a CRC32 (IEEE) of the body, then the body itself. This
// is the frame layout of the storage backends' segment files.
func AppendFrame(dst, body []byte) []byte {
	var frame [12]byte
	binary.BigEndian.PutUint64(frame[:8], uint64(len(body)))
	binary.BigEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(body))
	dst = append(dst, frame[:]...)
	return append(dst, body...)
}

// FrameScanner reads a stream of AppendFrame records, implementing the
// recovery policy for crash-truncated logs: a record that cannot be
// read in full, or that fails its checksum with nothing but zero
// bytes after it, is a torn tail and ends the scan with io.EOF; a bad
// record with real data after it is corruption and errors. ValidBytes
// reports the length of the validated prefix so callers can truncate
// the file there.
type FrameScanner struct {
	br      *bufio.Reader
	valid   int64 // bytes of validated prefix, including header
	lastLen int64 // framed size of the record Next most recently accepted
	records int
}

// NewFrameScanner checks the stream's magic header and returns a
// scanner positioned at the first record.
func NewFrameScanner(r io.Reader, magic string) (*FrameScanner, error) {
	br := bufio.NewReader(r)
	m := make([]byte, len(magic))
	if _, err := io.ReadFull(br, m); err != nil {
		return nil, err
	}
	if string(m) != magic {
		return nil, fmt.Errorf("bad magic %q", m)
	}
	return &FrameScanner{br: br, valid: int64(len(magic))}, nil
}

// Next returns the next complete, checksum-valid record body. It
// returns io.EOF at a clean end of log or at a torn tail, and an
// error for mid-log corruption.
func (fs *FrameScanner) Next() ([]byte, error) {
	var frame [12]byte
	if _, err := io.ReadFull(fs.br, frame[:]); err != nil {
		return nil, io.EOF // clean end or torn frame
	}
	length := binary.BigEndian.Uint64(frame[:8])
	sum := binary.BigEndian.Uint32(frame[8:])
	if length > maxRecordBytes {
		return nil, fs.tailOr(fmt.Errorf("absurd length %d", length))
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(fs.br, body); err != nil {
		return nil, io.EOF // torn body
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fs.tailOr(fmt.Errorf("checksum mismatch"))
	}
	fs.lastLen = 12 + int64(length)
	fs.valid += fs.lastLen
	fs.records++
	return body, nil
}

// Reject reports that the body Next most recently returned failed to
// decode despite a valid checksum (a zero-filled tail checksums
// cleanly: CRC32 of an empty body is zero). It applies the same
// tail-versus-corruption policy as Next — io.EOF if the bad record is
// the tail, an error wrapping cause otherwise — and unwinds the
// record from the validated prefix.
func (fs *FrameScanner) Reject(cause error) error {
	fs.valid -= fs.lastLen
	fs.records--
	fs.lastLen = 0
	return fs.tailOr(cause)
}

// tailOr decides whether a bad record is a torn tail: if the rest of
// the stream is empty or all zero bytes (a crash mid-append can leave
// a zero-filled block), the scan ends with io.EOF; any real data
// after the bad record means mid-log corruption and cause is
// returned.
func (fs *FrameScanner) tailOr(cause error) error {
	for {
		b, err := fs.br.ReadByte()
		if err != nil {
			return io.EOF
		}
		if b != 0 {
			return fmt.Errorf("%w (followed by further data)", cause)
		}
	}
}

// ValidBytes returns the length in bytes of the validated log prefix
// (header plus every record accepted so far). After a scan ends with
// io.EOF, truncating the file to this offset removes the torn tail.
func (fs *FrameScanner) ValidBytes() int64 { return fs.valid }

// Records returns how many records have been accepted so far.
func (fs *FrameScanner) Records() int { return fs.records }

// --- encoding helpers ---

func writeU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.Write(b[:]) //nolint:errcheck // surfaced by the final Flush
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

func appendU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

func appendString(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindInt, KindBool:
		b = appendU64(b, uint64(v.i))
	case KindFloat:
		b = appendU64(b, math.Float64bits(v.f))
	case KindString, KindSymbol:
		b = appendString(b, v.s)
	}
	return b
}

func appendWME(b []byte, w *WME) []byte {
	b = appendU64(b, uint64(w.ID))
	b = appendU64(b, w.TimeTag)
	b = appendString(b, w.Class)
	names := w.AttrNames()
	b = appendU64(b, uint64(len(names)))
	for _, n := range names {
		b = appendString(b, n)
		b = appendValue(b, w.attrs[n])
	}
	return b
}

func writeWME(w *bufio.Writer, x *WME) error {
	buf := appendWME(nil, x)
	_, err := w.Write(buf)
	return err
}

// byteReader decodes from an in-memory record.
type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) u64() (uint64, error) {
	if r.pos+8 > len(r.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.u64()
	if err != nil {
		return "", err
	}
	if r.pos+int(n) > len(r.b) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *byteReader) value() (Value, error) {
	if r.pos >= len(r.b) {
		return Value{}, io.ErrUnexpectedEOF
	}
	kind := Kind(r.b[r.pos])
	r.pos++
	switch kind {
	case KindNil:
		return Nil(), nil
	case KindInt:
		v, err := r.u64()
		return Value{kind: KindInt, i: int64(v)}, err
	case KindBool:
		v, err := r.u64()
		return Value{kind: KindBool, i: int64(v)}, err
	case KindFloat:
		v, err := r.u64()
		return Float(math.Float64frombits(v)), err
	case KindString, KindSymbol:
		s, err := r.str()
		return Value{kind: kind, s: s}, err
	}
	return Value{}, fmt.Errorf("wm: unknown value kind %d", kind)
}

func (r *byteReader) wme() (*WME, error) {
	id, err := r.u64()
	if err != nil {
		return nil, err
	}
	tag, err := r.u64()
	if err != nil {
		return nil, err
	}
	class, err := r.str()
	if err != nil {
		return nil, err
	}
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	attrs := make(map[string]Value, n)
	for i := uint64(0); i < n; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		attrs[name] = v
	}
	return &WME{ID: int64(id), TimeTag: tag, Class: class, attrs: attrs}, nil
}

// readWME decodes one WME from a stream (snapshot format).
func readWME(br *bufio.Reader) (*WME, error) {
	// Snapshot WMEs use the same layout as logged delta adds; decode by
	// buffering the variable-size pieces through the stream reader.
	id, err := readU64(br)
	if err != nil {
		return nil, err
	}
	tag, err := readU64(br)
	if err != nil {
		return nil, err
	}
	class, err := readString(br)
	if err != nil {
		return nil, err
	}
	n, err := readU64(br)
	if err != nil {
		return nil, err
	}
	attrs := make(map[string]Value, n)
	for i := uint64(0); i < n; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		v, err := readValue(br)
		if err != nil {
			return nil, err
		}
		attrs[name] = v
	}
	return &WME{ID: int64(id), TimeTag: tag, Class: class, attrs: attrs}, nil
}

func readString(br *bufio.Reader) (string, error) {
	n, err := readU64(br)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("wm: absurd string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func readValue(br *bufio.Reader) (Value, error) {
	kb, err := br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	kind := Kind(kb)
	switch kind {
	case KindNil:
		return Nil(), nil
	case KindInt, KindBool:
		v, err := readU64(br)
		return Value{kind: kind, i: int64(v)}, err
	case KindFloat:
		v, err := readU64(br)
		return Float(math.Float64frombits(v)), err
	case KindString, KindSymbol:
		s, err := readString(br)
		return Value{kind: kind, s: s}, err
	}
	return Value{}, fmt.Errorf("wm: unknown value kind %d", kind)
}
