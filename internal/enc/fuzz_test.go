package enc

import (
	"bytes"
	"testing"
)

// FuzzReaderNeverPanics feeds arbitrary bytes through every decoder; the
// contract is error-or-value, never a panic or unbounded allocation.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	b := NewBuffer(0)
	b.Uvarint(3)
	b.String("seed")
	b.BytesField([]byte{1, 2, 3})
	b.StringMap(map[string]string{"k": "v"})
	f.Add(b.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		r.Uvarint()
		r.Varint()
		_ = r.String()
		r.BytesField()
		r.StringMap()
		r.StringMapView()
		r.StringSlice()
		r.Uint8()
		r.Uint32()
		r.Uint64()
		r.Bool()
		r.TraceTail()
		_ = r.Err()
		_ = r.Remaining()
	})
}

// FuzzTraceTailRoundTrip exercises the element-header trace-context
// tail. An element-like prefix (string body, uvarint field) is encoded,
// optionally followed by a trace tail; decoding must (a) round-trip the
// id/span exactly when a tail was written, and (b) decode the *same
// prefix without any tail* — an old-format record from a pre-trace
// WAL or snapshot — as untraced with no error.
func FuzzTraceTailRoundTrip(f *testing.F) {
	f.Add([]byte("body"), uint64(7), []byte("0123456789abcdef"), uint64(99), true)
	f.Add([]byte{}, uint64(0), []byte(""), uint64(0), true)           // zero id -> 1-byte tail
	f.Add([]byte("old"), uint64(3), []byte("x"), uint64(1), false)    // no tail at all
	f.Add([]byte("z"), uint64(1), make([]byte, 16), uint64(12), true) // explicit zero id
	f.Fuzz(func(t *testing.T, body []byte, field uint64, idBytes []byte, span uint64, withTail bool) {
		var id [16]byte
		copy(id[:], idBytes)

		b := NewBuffer(0)
		b.BytesField(body)
		b.Uvarint(field)
		if withTail {
			b.TraceTail(id, span)
		}

		r := NewReader(b.Bytes())
		if got := r.BytesField(); !bytes.Equal(got, body) && !(len(got) == 0 && len(body) == 0) {
			t.Fatalf("body %v != %v", got, body)
		}
		if got := r.Uvarint(); got != field {
			t.Fatalf("field %d != %d", got, field)
		}
		gotID, gotSpan := r.TraceTail()
		if withTail && id != ([16]byte{}) {
			if gotID != id || gotSpan != span {
				t.Fatalf("tail (%x,%d) != (%x,%d)", gotID, gotSpan, id, span)
			}
		} else {
			// Old-format (no tail) and explicitly-untraced records both
			// decode as the zero id — and must not error.
			if gotID != ([16]byte{}) || gotSpan != 0 {
				t.Fatalf("untraced record decoded as (%x,%d)", gotID, gotSpan)
			}
		}
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRoundTrip checks that any (string, bytes, uint) triple round-trips
// exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add("key", []byte("value"), uint64(42))
	f.Add("", []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, s string, p []byte, u uint64) {
		b := NewBuffer(0)
		b.String(s)
		b.BytesField(p)
		b.Uvarint(u)
		r := NewReader(b.Bytes())
		if got := r.String(); got != s {
			t.Fatalf("string %q != %q", got, s)
		}
		if got := r.BytesField(); !bytes.Equal(got, p) && !(len(got) == 0 && len(p) == 0) {
			t.Fatalf("bytes %v != %v", got, p)
		}
		if got := r.Uvarint(); got != u {
			t.Fatalf("uvarint %d != %d", got, u)
		}
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}
