package enc

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRoundTripScalars(t *testing.T) {
	b := NewBuffer(64)
	b.Uvarint(0)
	b.Uvarint(math.MaxUint64)
	b.Varint(-1)
	b.Varint(math.MinInt64)
	b.Varint(math.MaxInt64)
	b.Uint8(0xab)
	b.Uint32(0xdeadbeef)
	b.Uint64(0x0102030405060708)
	b.Bool(true)
	b.Bool(false)

	r := NewReader(b.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d, want MinInt64", got)
	}
	if got := r.Varint(); got != math.MaxInt64 {
		t.Errorf("Varint = %d, want MaxInt64", got)
	}
	if got := r.Uint8(); got != 0xab {
		t.Errorf("Uint8 = %#x, want 0xab", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0102030405060708 {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool = false, want true")
	}
	if got := r.Bool(); got {
		t.Error("Bool = true, want false")
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripComposite(t *testing.T) {
	b := NewBuffer(0)
	b.BytesField([]byte("hello"))
	b.BytesField(nil)
	b.String("world")
	b.String("")
	b.StringMap(map[string]string{"a": "1", "b": "2"})
	b.StringSlice([]string{"x", "", "z"})

	r := NewReader(b.Bytes())
	if got := r.BytesField(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("BytesField = %q", got)
	}
	if got := r.BytesField(); len(got) != 0 {
		t.Errorf("nil BytesField = %q, want empty", got)
	}
	if got := r.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	m := r.StringMap()
	if len(m) != 2 || m["a"] != "1" || m["b"] != "2" {
		t.Errorf("StringMap = %v", m)
	}
	s := r.StringSlice()
	if len(s) != 3 || s[0] != "x" || s[1] != "" || s[2] != "z" {
		t.Errorf("StringSlice = %v", s)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// Equal maps encode to equal bytes: keys ascending, whatever order the map
// is ranged in (a map of more than eight keys changes order between any two
// ranges, so a few encodes would show an unsorted writer up).
func TestStringMapIsCanonical(t *testing.T) {
	m := make(map[string]string)
	for i := 0; i < 20; i++ {
		m[fmt.Sprintf("key-%02d", (i*7)%20)] = fmt.Sprint(i)
	}
	var first []byte
	for i := 0; i < 20; i++ {
		b := NewBuffer(0)
		b.StringMap(m)
		if first == nil {
			first = b.Bytes()
		} else if !bytes.Equal(first, b.Bytes()) {
			t.Fatal("one map encoded two ways")
		}
	}
	r := NewReader(first)
	var prev string
	for n := r.Uvarint(); n > 0; n-- {
		k := r.String()
		_ = r.String()
		if k <= prev {
			t.Fatalf("key %q after %q", k, prev)
		}
		prev = k
	}
	view, canonical := NewReader(first).StringMapView()
	if !canonical || !bytes.Equal(view, first) {
		t.Fatalf("StringMapView of StringMap's own bytes: canonical %v, %d of %d B", canonical, len(view), len(first))
	}
}

// StringMapView spans exactly what StringMap decodes, and calls canonical
// only what StringMap would write itself.
func TestStringMapView(t *testing.T) {
	pairs := func(count []byte, kv ...string) []byte {
		b := NewBuffer(0)
		b.Append(count)
		for _, s := range kv {
			b.String(s)
		}
		b.String("next field")
		return b.Bytes()
	}
	for _, tc := range []struct {
		name      string
		data      []byte
		canonical bool
		size      int // of the view; -1 for a decode error
	}{
		{"empty", pairs([]byte{0}), true, 0},
		{"sorted", pairs([]byte{2}, "a", "1", "b", ""), true, 8},
		{"unsorted", pairs([]byte{2}, "b", "1", "a", "2"), false, 9},
		{"duplicate key", pairs([]byte{2}, "a", "1", "a", "2"), false, 9},
		{"overlong count", pairs([]byte{0x81, 0x00}, "a", "1"), false, 6},
		{"overlong zero count", pairs([]byte{0x80, 0x00}), true, 0},
		{"truncated", []byte{2, 1, 'a', 1, '1', 1}, false, -1},
		{"count beyond input", []byte{200, 1}, false, -1},
	} {
		r := NewReader(tc.data)
		view, canonical := r.StringMapView()
		ref := NewReader(tc.data)
		ref.StringMap()
		if (r.Err() != nil) != (tc.size < 0) || (ref.Err() != nil) != (tc.size < 0) {
			t.Fatalf("%s: view err %v, map err %v", tc.name, r.Err(), ref.Err())
		}
		if tc.size < 0 {
			continue
		}
		if canonical != tc.canonical || len(view) != tc.size || r.Remaining() != ref.Remaining() {
			t.Fatalf("%s: canonical %v, %d B, %d left; StringMap leaves %d", tc.name, canonical, len(view), r.Remaining(), ref.Remaining())
		}
		if r.String() != "next field" {
			t.Fatalf("%s: the view ended in the wrong place", tc.name)
		}
	}
}

func TestBytesFieldIsCopy(t *testing.T) {
	b := NewBuffer(0)
	b.BytesField([]byte{1, 2, 3})
	raw := b.Bytes()
	r := NewReader(raw)
	got := r.BytesField()
	raw[1] = 0xff // clobber the underlying storage
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("decoded bytes alias input: %v", got)
	}
}

func TestTruncatedInputs(t *testing.T) {
	// Build a complete message, then verify every strict prefix fails to
	// decode cleanly rather than panicking or returning garbage silently.
	b := NewBuffer(0)
	b.Uvarint(300)
	b.String("abcdef")
	b.Uint64(42)
	full := b.Bytes()

	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		r.Uvarint()
		_ = r.String()
		r.Uint64()
		if r.Err() == nil {
			t.Fatalf("prefix len %d: expected decode error, got none", n)
		}
	}
}

func TestLengthPrefixBeyondInput(t *testing.T) {
	b := NewBuffer(0)
	b.Uvarint(1 << 40) // a huge claimed length with no payload
	r := NewReader(b.Bytes())
	if got := r.BytesField(); got != nil {
		t.Errorf("BytesField = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Fatal("expected error for oversized length prefix")
	}
}

func TestCorruptMapCount(t *testing.T) {
	b := NewBuffer(0)
	b.Uvarint(1 << 40)
	r := NewReader(b.Bytes())
	if m := r.StringMap(); m != nil {
		t.Errorf("StringMap = %v, want nil", m)
	}
	if r.Err() == nil {
		t.Fatal("expected error for corrupt map count")
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader(nil)
	r.Uint64() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	r.Uint32()
	_ = r.String()
	if r.Err() != first {
		t.Errorf("error not sticky: %v != %v", r.Err(), first)
	}
}

func TestFinishTrailing(t *testing.T) {
	b := NewBuffer(0)
	b.Uint8(1)
	b.Uint8(2)
	r := NewReader(b.Bytes())
	r.Uint8()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish should report trailing bytes")
	}
}

func TestReset(t *testing.T) {
	b := NewBuffer(0)
	b.String("abc")
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.Uint8(7)
	r := NewReader(b.Bytes())
	if got := r.Uint8(); got != 7 {
		t.Errorf("after reset Uint8 = %d", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// quickMsg is an arbitrary composite message for the property test.
type quickMsg struct {
	U   uint64
	V   int64
	B   []byte
	S   string
	M   map[string]string
	L   []string
	F   bool
	U32 uint32
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(m quickMsg) bool {
		b := NewBuffer(0)
		b.Uvarint(m.U)
		b.Varint(m.V)
		b.BytesField(m.B)
		b.String(m.S)
		b.StringMap(m.M)
		b.StringSlice(m.L)
		b.Bool(m.F)
		b.Uint32(m.U32)

		r := NewReader(b.Bytes())
		if r.Uvarint() != m.U || r.Varint() != m.V {
			return false
		}
		if gb := r.BytesField(); !bytes.Equal(gb, m.B) && !(len(gb) == 0 && len(m.B) == 0) {
			return false
		}
		if r.String() != m.S {
			return false
		}
		gm := r.StringMap()
		if len(gm) != len(m.M) {
			return false
		}
		for k, v := range m.M {
			if gm[k] != v {
				return false
			}
		}
		gl := r.StringSlice()
		if len(gl) != len(m.L) {
			return false
		}
		for i := range m.L {
			if gl[i] != m.L[i] {
				return false
			}
		}
		if r.Bool() != m.F || r.Uint32() != m.U32 {
			return false
		}
		return r.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Feed random byte soup into every decoder; it must error or succeed,
	// never panic.
	f := func(raw []byte) bool {
		r := NewReader(raw)
		r.Uvarint()
		_ = r.String()
		r.BytesField()
		r.StringMap()
		r.StringSlice()
		r.Uint64()
		r.Varint()
		_ = r.Err()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceTail(t *testing.T) {
	id := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

	// Traced: full round trip.
	b := NewBuffer(0)
	b.String("prefix")
	b.TraceTail(id, 42)
	r := NewReader(b.Bytes())
	if got := r.String(); got != "prefix" {
		t.Fatalf("prefix = %q", got)
	}
	gotID, gotSpan := r.TraceTail()
	if gotID != id || gotSpan != 42 {
		t.Fatalf("tail = (%x, %d)", gotID, gotSpan)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	// Untraced: one marker byte.
	b.Reset()
	b.TraceTail([16]byte{}, 0)
	if b.Len() != 1 {
		t.Fatalf("untraced tail is %d bytes, want 1", b.Len())
	}
	r = NewReader(b.Bytes())
	if gotID, gotSpan = r.TraceTail(); gotID != ([16]byte{}) || gotSpan != 0 {
		t.Fatalf("untraced tail = (%x, %d)", gotID, gotSpan)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	// Absent (old format): no bytes at all decodes as untraced, no error.
	b.Reset()
	b.String("old record")
	r = NewReader(b.Bytes())
	_ = r.String()
	if gotID, gotSpan = r.TraceTail(); gotID != ([16]byte{}) || gotSpan != 0 {
		t.Fatalf("absent tail = (%x, %d)", gotID, gotSpan)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	// Truncated tail: marker present but id cut short -> error.
	b.Reset()
	b.TraceTail(id, 42)
	r = NewReader(b.Bytes()[:9])
	r.TraceTail()
	if r.Err() == nil {
		t.Fatal("truncated tail decoded without error")
	}

	// Bad marker -> error.
	r = NewReader([]byte{7})
	r.TraceTail()
	if r.Err() == nil {
		t.Fatal("bad marker decoded without error")
	}
}

func TestViewAliasesInput(t *testing.T) {
	b := NewBuffer(16)
	b.BytesField([]byte{1, 2, 3})
	b.BytesField([]byte{9})
	in := b.Bytes()
	r := NewReader(in)
	v := r.View()
	if !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("View = %v", v)
	}
	in[1] = 7 // the first field's first byte
	if v[0] != 7 {
		t.Fatal("View copied")
	}
	if v = append(v, 42); in[4] == 42 {
		t.Fatal("appending to a view wrote into the next field")
	}
	if got := r.View(); !bytes.Equal(got, []byte{9}) || r.Err() != nil {
		t.Fatalf("second View = %v, %v", got, r.Err())
	}
	if r.View(); r.Err() == nil {
		t.Fatal("View past the end did not fail")
	}
}

func TestInternerSharesAndStopsGrowing(t *testing.T) {
	var in Interner
	a, b := in.Intern([]byte("rid")), in.Intern([]byte("rid"))
	if a != "rid" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("equal inputs did not share one string")
	}
	if n := testing.AllocsPerRun(100, func() { in.Intern([]byte("rid")) }); n != 0 {
		t.Fatalf("a hit allocates %v times", n)
	}
	if (*Interner)(nil).Intern([]byte("x")) != "x" || in.Intern(nil) != "" {
		t.Fatal("nil interner or empty input")
	}
	long := bytes.Repeat([]byte{'l'}, internMaxLen+1)
	if l1, l2 := in.Intern(long), in.Intern(long); unsafe.StringData(l1) == unsafe.StringData(l2) {
		t.Fatal("a string too long to be vocabulary was kept")
	}
	// Concurrent interning of more distinct strings than the table takes:
	// every answer is right, and the early vocabulary stays shared.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4*internMax; i++ {
				want := fmt.Sprintf("key-%d", i)
				if got := in.Intern([]byte(want)); got != want {
					t.Errorf("Intern(%q) = %q", want, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := in.n.Load(); n != internMax {
		t.Fatalf("table holds %d strings, want it full at %d", n, internMax)
	}
	if unsafe.StringData(in.Intern([]byte("rid"))) != unsafe.StringData(a) {
		t.Fatal("vocabulary interned early was lost")
	}
}
