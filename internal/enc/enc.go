// Package enc provides small, allocation-conscious binary encoding helpers
// shared by the write-ahead log, snapshot files, and the RPC wire format.
//
// The format is deliberately simple: unsigned varints for integers, and
// length-prefixed byte strings. All multi-byte fixed-width values are
// little-endian. Decoding is strict: every decode reports an error on
// truncated or malformed input instead of panicking, because the inputs may
// come from a torn log tail or from the network.
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors returned by the decoder.
var (
	// ErrShortBuffer reports that the input ended before a complete value.
	ErrShortBuffer = errors.New("enc: short buffer")
	// ErrOverflow reports a varint that does not fit the requested width.
	ErrOverflow = errors.New("enc: varint overflow")
	// ErrLength reports a length prefix that exceeds the remaining input.
	ErrLength = errors.New("enc: length prefix exceeds remaining input")
)

// Buffer is an append-only encoder. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the buffer's storage
// and is invalidated by further writes.
func (e *Buffer) Bytes() []byte { return e.b }

// Len returns the number of encoded bytes.
func (e *Buffer) Len() int { return len(e.b) }

// Reset truncates the buffer to empty, retaining its storage.
func (e *Buffer) Reset() { e.b = e.b[:0] }

// Append appends p verbatim and returns the appended copy, which stays
// valid (and unchanged) however the buffer grows afterwards.
func (e *Buffer) Append(p []byte) []byte {
	n := len(e.b)
	e.b = append(e.b, p...)
	return e.b[n:len(e.b):len(e.b)]
}

// bufPool recycles encode buffers across the layers that build a record
// only to hand its bytes to something that copies them (the log, a frame,
// a transaction's staged ops).
var bufPool = sync.Pool{New: func() any { return NewBuffer(512) }}

// maxPooledBuffer keeps one oversized record from pinning its memory in
// the pool.
const maxPooledBuffer = 64 << 10

// GetBuffer returns an empty Buffer from the pool.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.Reset()
	return b
}

// PutBuffer returns b to the pool. Nothing may use b, or a slice of its
// storage, afterwards.
func PutBuffer(b *Buffer) {
	if cap(b.b) <= maxPooledBuffer {
		bufPool.Put(b)
	}
}

// Uvarint appends v as an unsigned varint.
func (e *Buffer) Uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

// Varint appends v as a zig-zag signed varint.
func (e *Buffer) Varint(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}

// Uint8 appends a single byte.
func (e *Buffer) Uint8(v uint8) { e.b = append(e.b, v) }

// Uint32 appends a fixed-width little-endian uint32.
func (e *Buffer) Uint32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}

// Uint64 appends a fixed-width little-endian uint64.
func (e *Buffer) Uint64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// Bool appends a boolean as one byte (0 or 1).
func (e *Buffer) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Bytes appends a length-prefixed byte string. A nil slice round-trips as an
// empty slice.
func (e *Buffer) BytesField(v []byte) {
	e.Uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// String appends a length-prefixed string.
func (e *Buffer) String(v string) {
	e.Uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// AppendString appends s verbatim: bytes that already are an encoding.
func (e *Buffer) AppendString(s string) { e.b = append(e.b, s...) }

// StringMap appends a map of strings as a count followed by key/value
// pairs, keys ascending: equal maps encode to equal bytes, whatever order
// Go's map iteration takes. Decoders must still not assume any pair order —
// encodings older than the sort are in the order a map range chose.
func (e *Buffer) StringMap(m map[string]string) {
	e.Uvarint(uint64(len(m)))
	var stack [8]string // header maps are small: no allocation for the keys
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.String(k)
		e.String(m[k])
	}
}

// StringSlice appends a count-prefixed slice of strings.
func (e *Buffer) StringSlice(s []string) {
	e.Uvarint(uint64(len(s)))
	for _, v := range s {
		e.String(v)
	}
}

// TraceTail appends optional trace context as a self-delimiting tail:
// one marker byte 0 when id is all-zero (untraced), or marker 1
// followed by the 16 raw id bytes and the span as an unsigned varint.
// Paired with Reader.TraceTail, which treats *absent* bytes as
// untraced, this lets trace context ride at the end of pre-existing
// record formats (element blobs, redo records, snapshots) while
// pre-trace encodings keep decoding unchanged.
func (e *Buffer) TraceTail(id [16]byte, span uint64) {
	if id == ([16]byte{}) {
		e.Uint8(0)
		return
	}
	e.Uint8(1)
	e.b = append(e.b, id[:]...)
	e.Uvarint(span)
}

// Reader decodes values from a byte slice in the order they were appended.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error encountered while decoding, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// fail records the first decode error and returns it.
func (r *Reader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrShortBuffer)
		} else {
			r.fail(ErrOverflow)
		}
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrShortBuffer)
		} else {
			r.fail(ErrOverflow)
		}
		return 0
	}
	r.off += n
	return v
}

// Uint8 decodes a single byte.
func (r *Reader) Uint8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Uint32 decodes a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// Uint64 decodes a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Bool decodes a boolean byte. Any nonzero byte decodes as true.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// View decodes a length-prefixed byte string without copying it: the
// returned slice aliases the Reader's input and is valid only as long as
// that is. Log replay reads records this way out of a scan buffer that is
// about to be reused, and copies exactly what it keeps.
func (r *Reader) View() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) || n > math.MaxInt32 {
		r.fail(ErrLength)
		return nil
	}
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}

// BytesField decodes a length-prefixed byte string. The returned slice is a
// copy and remains valid after the Reader's input is reused.
func (r *Reader) BytesField() []byte {
	v := r.View()
	if r.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(v)), v...)
}

// String decodes a length-prefixed string.
func (r *Reader) String() string { return string(r.View()) }

// StringMap decodes a map written by Buffer.StringMap. A zero-length map
// decodes as nil so that nil round-trips through empty.
func (r *Reader) StringMap() map[string]string { return r.StringMapKeys(nil) }

// StringMapKeys is StringMap with the keys interned in keys (nil for none):
// a log's records mostly repeat the same few header names.
func (r *Reader) StringMapKeys(keys *Interner) map[string]string {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Remaining()) {
		// Each pair needs at least two length bytes; a count larger than the
		// remaining byte count is certainly corrupt.
		r.fail(ErrLength)
		return nil
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := keys.Intern(r.View())
		v := r.String()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

// StringMapView decodes a map written by Buffer.StringMap without building
// it: it checks the encoding and returns it whole, count included, as a view
// into the Reader's input (nil for a zero-length map). canonical reports
// that the view is byte for byte what Buffer.StringMap writes for the map it
// encodes — keys strictly ascending, so no key twice, and no varint longer
// than it need be — and can therefore be kept, and searched, as it is.
func (r *Reader) StringMapView() (view []byte, canonical bool) {
	start := r.off
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil, true
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrLength) // as in StringMapKeys
		return nil, false
	}
	canonical = true
	size := uvarintLen(n)
	var prev []byte
	for i := uint64(0); i < n; i++ {
		k := r.View()
		v := r.View()
		if r.err != nil {
			return nil, false
		}
		if i > 0 && string(prev) >= string(k) { // the conversions do not allocate
			canonical = false
		}
		prev = k
		size += uvarintLen(uint64(len(k))) + len(k) + uvarintLen(uint64(len(v))) + len(v)
	}
	return r.b[start:r.off:r.off], canonical && size == r.off-start
}

// uvarintLen is the length of v's shortest varint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// StringSlice decodes a slice written by Buffer.StringSlice.
func (r *Reader) StringSlice() []string {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrLength)
		return nil
	}
	s := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s = append(s, r.String())
		if r.err != nil {
			return nil
		}
	}
	return s
}

// TraceTail decodes a tail written by Buffer.TraceTail. When the input
// is already exhausted (or a prior decode failed) it returns the zero
// id and span WITHOUT recording an error: a record that simply ends
// before the tail is an old-format record from a pre-trace WAL or
// snapshot, and decodes as untraced. A present but truncated or
// malformed tail is still an error.
func (r *Reader) TraceTail() (id [16]byte, span uint64) {
	if r.err != nil || r.Remaining() == 0 {
		return id, 0
	}
	switch marker := r.Uint8(); marker {
	case 0:
		return id, 0
	case 1:
		if r.off+16 > len(r.b) {
			r.fail(ErrShortBuffer)
			return [16]byte{}, 0
		}
		copy(id[:], r.b[r.off:r.off+16])
		r.off += 16
		span = r.Uvarint()
		if r.err != nil {
			return [16]byte{}, 0
		}
		return id, span
	default:
		r.fail(fmt.Errorf("enc: bad trace tail marker %d", marker))
		return [16]byte{}, 0
	}
}

// Finish reports an error if decoding failed or input remains. Use it when a
// message must be consumed exactly.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("enc: %d trailing bytes", r.Remaining())
	}
	return nil
}

// Interner hands out one shared string for each distinct byte string it is
// shown, for the small vocabulary that recurs in every record of a log —
// queue names, header keys — so that replaying a million records does not
// allocate a million copies of "rid". It is a fixed open-addressed table:
// lookups are lock-free, inserts take a mutex, and once internMax strings
// are in, an unknown string is simply allocated. The zero value is ready
// to use, and a nil *Interner interns nothing.
type Interner struct {
	slots [internSlots]atomic.Pointer[string]
	mu    sync.Mutex   // serializes inserts
	n     atomic.Int32 // strings held; written under mu
}

const (
	internSlots  = 512 // power of two, twice internMax: probes stay short
	internMax    = 256
	internMaxLen = 64 // bytes; longer strings are not vocabulary
)

// Intern returns b as a string, shared with every earlier equal b when the
// table holds it.
func (t *Interner) Intern(b []byte) string {
	if t == nil || len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	i := h & (internSlots - 1)
	for ; ; i = (i + 1) & (internSlots - 1) {
		p := t.slots[i].Load()
		if p == nil {
			break
		}
		if *p == string(b) { // the conversion does not allocate
			return *p
		}
	}
	s := string(b)
	if t.n.Load() == internMax {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n.Load() == internMax {
		return s
	}
	for ; ; i = (i + 1) & (internSlots - 1) { // slots never empty again: resume the probe
		p := t.slots[i].Load()
		if p == nil {
			break
		}
		if *p == s {
			return *p
		}
	}
	t.slots[i].Store(&s)
	t.n.Add(1)
	return s
}
