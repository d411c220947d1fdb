package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// readReference is how the log was read before Scan existed, kept as the
// reference Scan and ReadFrom are compared against: every segment file in
// name order, whole, each frame checked and its payload copied, a segment
// abandoned at its first bad frame.
func readReference(t testing.TB, dir string, from LSN) []Record {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	type seg struct {
		first LSN
		path  string
	}
	var segs []seg
	for _, n := range names {
		if first, ok := parseSegName(filepath.Base(n)); ok {
			segs = append(segs, seg{first, n})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	var out []Record
	for _, s := range segs {
		b, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) >= headerSize+trailerSize {
			n := int(binary.LittleEndian.Uint32(b[8:]))
			if n < 0 || len(b)-headerSize-trailerSize < n {
				break
			}
			end := headerSize + n
			if crc32.Checksum(b[:end], castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
				break
			}
			if lsn := LSN(binary.LittleEndian.Uint64(b)); lsn >= from {
				out = append(out, Record{LSN: lsn, Type: b[12], Payload: append([]byte{}, b[headerSize:end]...)})
			}
			b = b[end+trailerSize:]
		}
	}
	return out
}

// scanAll collects what Scan streams, copying each payload before the
// callback returns and then scribbling over the view, so that a later
// segment read into the same buffer — or a view handed out twice — shows.
func scanAll(t testing.TB, l *Log, from LSN) []Record {
	t.Helper()
	var out []Record
	st, err := l.Scan(from, func(seg []Record) error {
		for _, rec := range seg {
			view := rec.Payload
			rec.Payload = append([]byte{}, view...)
			out = append(out, rec)
			for i := range view {
				view[i] = 0xA5
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if st.Records != len(out) {
		t.Fatalf("Scan reports %d records, delivered %d", st.Records, len(out))
	}
	return out
}

func sameRecords(t testing.TB, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: record %d is {%d %d %q}, want {%d %d %q}", what, i,
				got[i].LSN, got[i].Type, got[i].Payload, want[i].LSN, want[i].Type, want[i].Payload)
		}
	}
}

func TestScanMatchesReference(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{NoFsync: true, SegmentSize: 512})
	for i := 0; i < 300; i++ {
		if _, err := l.Append(uint8(i%5), []byte(fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte{'x'}, i%40)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := l.Stats().Segments; n < 8 {
		t.Fatalf("only %d segments", n)
	}
	for _, from := range []LSN{1, 2, 150, 300, 301} {
		want := readReference(t, dir, from)
		sameRecords(t, fmt.Sprintf("Scan(%d)", from), scanAll(t, l, from), want)
		got, err := l.ReadFrom(from)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, fmt.Sprintf("ReadFrom(%d)", from), got, want)
	}
}

// A scan owns two segment buffers however long the log is: the views of
// segment k+2 land where segment k's were.
func TestScanHoldsTwoBuffers(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{NoFsync: true, SegmentSize: 4096})
	payload := bytes.Repeat([]byte{'p'}, 100)
	for i := 0; i < 1000; i++ {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	buffers := make(map[*byte]int)
	segments := 0
	if _, err := l.Scan(1, func(seg []Record) error {
		segments++
		buffers[&seg[0].Payload[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if segments < 20 {
		t.Fatalf("only %d segments", segments)
	}
	if len(buffers) != 2 {
		t.Fatalf("%d segments were read into %d distinct buffers, want 2", segments, len(buffers))
	}
}

func TestScanStopsAtCallbackError(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{NoFsync: true, SegmentSize: 256})
	for i := 0; i < 200; i++ {
		if _, err := l.Append(1, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	calls := 0
	_, err := l.Scan(1, func([]Record) error {
		if calls++; calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("Scan returned %v after %d calls, want boom after 3", err, calls)
	}
	// The log is whole and usable afterwards.
	if got := scanAll(t, l, 1); len(got) != 200 {
		t.Fatalf("%d records after an abandoned scan", len(got))
	}
}

// FuzzScanMatchesReadFrom writes arbitrary bytes as two segments of a log
// and reads them back three ways: none may panic, and Scan and ReadFrom
// must deliver exactly the records the reference reader finds.
func FuzzScanMatchesReadFrom(f *testing.F) {
	var good []byte
	for lsn := LSN(1); lsn <= 4; lsn++ {
		good = appendFrame(good, lsn, uint8(lsn), bytes.Repeat([]byte{byte(lsn)}, int(lsn)*7))
	}
	torn := append(append([]byte{}, good...), good[:11]...)
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 1
	gap := appendFrame(appendFrame(nil, 5, 1, []byte("five")), 9, 2, nil)
	f.Add(good, gap, uint8(1))
	f.Add(torn, good, uint8(3))
	f.Add(flipped, torn, uint8(0))
	f.Add([]byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(200))
	f.Fuzz(func(t *testing.T, seg0, seg1 []byte, from uint8) {
		dir := t.TempDir()
		for first, b := range map[LSN][]byte{1: seg0, 5: seg1} {
			if err := os.WriteFile(filepath.Join(dir, segName(first)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Options{NoFsync: true}) // cuts the last segment's torn tail
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		want := readReference(t, dir, LSN(from))
		sameRecords(t, "Scan", scanAll(t, l, LSN(from)), want)
		got, err := l.ReadFrom(LSN(from))
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "ReadFrom", got, want)
	})
}

func BenchmarkScan(b *testing.B) {
	l := benchLog(b, Options{NoFsync: true, SegmentSize: 256 << 10})
	payload := make([]byte, 128)
	for i := 0; i < 10000; i++ {
		if _, err := l.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := l.Scan(1, func([]Record) error { return nil })
		if err != nil || st.Records != 10000 {
			b.Fatalf("%d records, %v", st.Records, err)
		}
	}
}

func TestDecodeFrameDoesNotAllocate(t *testing.T) {
	frame := appendFrame(nil, 7, 3, bytes.Repeat([]byte{'z'}, 300))
	if n := testing.AllocsPerRun(100, func() {
		if rec, _, ok := decodeFrame(frame); !ok || rec.LSN != 7 || &rec.Payload[0] != &frame[headerSize] {
			t.Fatal("decodeFrame did not return a view of the frame")
		}
	}); n != 0 {
		t.Fatalf("decodeFrame allocates %v times per frame", n)
	}
}
