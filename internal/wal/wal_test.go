package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.NoFsync = true // keep tests fast; torn-tail tests inject corruption directly
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestAppendAndReadBack(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	var want []Record
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf("record-%d", i))
		lsn, err := l.Append(uint8(i%7), payload)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn != LSN(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		want = append(want, Record{LSN: lsn, Type: uint8(i % 7), Payload: payload})
	}
	got, err := l.ReadFrom(1)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2 := openTest(t, dir, Options{})
	defer l2.Close()
	lsn, err := l2.Append(2, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("lsn after reopen = %d, want 11", lsn)
	}
	recs, err := l2.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Fatalf("got %d records, want 11", len(recs))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentSize: 256})
	for i := 0; i < 50; i++ {
		if _, err := l.Append(0, bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil { // rotation happens as the batch is written
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected >=3 segments, got %d", st.Segments)
	}
	recs, err := l.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("got %d records, want 50", len(recs))
	}
	l.Close()

	// Reopen across segments.
	l2 := openTest(t, dir, Options{SegmentSize: 256})
	defer l2.Close()
	if got := l2.NextLSN(); got != 51 {
		t.Fatalf("NextLSN after reopen = %d, want 51", got)
	}
}

func TestReadFromMidpoint(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentSize: 128})
	defer l.Close()
	for i := 0; i < 30; i++ {
		if _, err := l.Append(0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := l.ReadFrom(17)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 14 {
		t.Fatalf("got %d records, want 14", len(recs))
	}
	if recs[0].LSN != 17 {
		t.Fatalf("first LSN = %d, want 17", recs[0].LSN)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentSize: 128})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(0, []byte("abcdefgh")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	before := l.Stats().Segments
	if before < 4 {
		t.Fatalf("want several segments, got %d", before)
	}
	if err := l.TruncateBefore(30); err != nil {
		t.Fatal(err)
	}
	after := l.Stats().Segments
	if after >= before {
		t.Fatalf("truncate removed nothing: %d -> %d", before, after)
	}
	recs, err := l.ReadFrom(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 || recs[0].LSN > 30 {
		t.Fatalf("records >=30 damaged by truncate: n=%d first=%d", len(recs), recs[0].LSN)
	}
	l.Close()

	// Reopen after truncation must still continue LSNs.
	l2 := openTest(t, dir, Options{SegmentSize: 128})
	defer l2.Close()
	lsn, err := l2.Append(0, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 41 {
		t.Fatalf("lsn after truncate+reopen = %d, want 41", lsn)
	}
}

func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(0, []byte("good")); err != nil {
			t.Fatal(err)
		}
	}
	raw, path, err := l.CopyTail()
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: chop the last 3 bytes of the final frame.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openTest(t, dir, Options{})
	defer l2.Close()
	recs, err := l2.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records after torn tail, want 4", len(recs))
	}
	// The torn record's LSN is reused.
	lsn, err := l2.Append(9, []byte("replacement"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("replacement lsn = %d, want 5", lsn)
	}
	recs, _ = l2.ReadFrom(1)
	if len(recs) != 5 || recs[4].Type != 9 {
		t.Fatalf("replacement not visible: %+v", recs)
	}
}

func TestCorruptMiddleStopsScan(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(0, []byte("abcdefgh")); err != nil {
			t.Fatal(err)
		}
	}
	raw, path, err := l.CopyTail()
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a payload byte in the middle record; the scan must stop there.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openTest(t, dir, Options{})
	defer l2.Close()
	recs, err := l2.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 5 {
		t.Fatalf("corruption not detected: got %d records", len(recs))
	}
}

func TestEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	defer l.Close()
	lsn, err := l.Append(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := l.ReadFrom(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Payload) != 0 || recs[0].Type != 3 {
		t.Fatalf("empty payload roundtrip: %+v", recs)
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	l.Close()
	if _, err := l.Append(0, nil); err != ErrClosed {
		t.Fatalf("Append after close: %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close: %v", err)
	}
	if _, err := l.ReadFrom(1); err != ErrClosed {
		t.Fatalf("ReadFrom after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestSyncCounters: a sequential committer's Sync forces exactly once —
// one flush covers everything staged — and a Sync with nothing staged is
// a no-op.
func TestSyncCounters(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 0 {
		t.Fatalf("append forced without a committer asking: %d syncs", st.Syncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("syncs = %d, want 1", st.Syncs)
	}
	// Sync with nothing staged is a no-op.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("idle sync counted: %d", st.Syncs)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentSize: 1024})
	defer l.Close()
	const goroutines = 8
	const perG = 200
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				if _, err := l.Append(uint8(g), []byte("concurrent")); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	recs, err := l.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("got %d records, want %d", len(recs), goroutines*perG)
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) {
			t.Fatalf("LSN gap at %d: %d", i, r.LSN)
		}
	}
}

func TestQuickRoundTripRandomPayloads(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentSize: 2048})
	defer l.Close()
	var stored [][]byte
	f := func(payload []byte, typ uint8) bool {
		lsn, err := l.Append(typ, payload)
		if err != nil {
			return false
		}
		stored = append(stored, append([]byte(nil), payload...))
		recs, err := l.ReadFrom(lsn)
		if err != nil || len(recs) != 1 {
			return false
		}
		return recs[0].Type == typ && bytes.Equal(recs[0].Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	recs, err := l.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(stored) {
		t.Fatalf("full scan %d != appended %d", len(recs), len(stored))
	}
	for i := range stored {
		if !bytes.Equal(recs[i].Payload, stored[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
}

func TestQuickTornTailAlwaysPrefix(t *testing.T) {
	// Property: chopping the log file at any byte offset yields a clean
	// prefix of the appended records — never a reordering, corruption
	// mis-read, or phantom record.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		l := openTest(t, dir, Options{})
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			payload := make([]byte, rng.Intn(64))
			rng.Read(payload)
			if _, err := l.Append(uint8(i), payload); err != nil {
				t.Fatal(err)
			}
		}
		raw, path, err := l.CopyTail()
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		cut := rng.Intn(len(raw) + 1)
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2 := openTest(t, dir, Options{})
		recs, err := l2.ReadFrom(1)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.LSN != LSN(i+1) || r.Type != uint8(i) {
				t.Fatalf("trial %d: torn log produced non-prefix at %d: %+v", trial, i, r)
			}
		}
		if len(recs) > n {
			t.Fatalf("trial %d: phantom records", trial)
		}
		l2.Close()
	}
}

func TestSegmentNameParse(t *testing.T) {
	name := segName(0xabcdef)
	got, ok := parseSegName(name)
	if !ok || got != 0xabcdef {
		t.Fatalf("parseSegName(%q) = %d, %v", name, got, ok)
	}
	for _, bad := range []string{"wal-xyz.seg", "foo.seg", "wal-10", "snapshot-01.snap"} {
		if _, ok := parseSegName(bad); ok {
			t.Errorf("parseSegName(%q) accepted", bad)
		}
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	l, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestSyncToGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.testSyncDelay = 500 * time.Microsecond // simulated fsync latency
	// Concurrent committers: every SyncTo must return only once its lsn is
	// covered; the fsync count must be well below the append count.
	const committers = 8
	const perC = 50
	errs := make(chan error, committers)
	for c := 0; c < committers; c++ {
		go func(c int) {
			for i := 0; i < perC; i++ {
				lsn, err := l.Append(uint8(c), []byte("rec"))
				if err != nil {
					errs <- err
					return
				}
				if err := l.SyncTo(lsn); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < committers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != committers*perC {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("no batching: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	recs, err := l.ReadFrom(1)
	if err != nil || len(recs) != committers*perC {
		t.Fatalf("read back %d records, %v", len(recs), err)
	}
}

func TestSyncToAlreadyDurableReturnsImmediately(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	lsn, err := l.Append(0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	before := l.Stats().Syncs
	if err := l.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Syncs != before {
		t.Fatal("SyncTo of an already durable LSN performed a redundant fsync")
	}
}

func TestSyncToAfterClose(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	lsn, _ := l.Append(0, []byte("x"))
	l.Close()
	if err := l.SyncTo(lsn + 1); err != ErrClosed {
		t.Fatalf("SyncTo after close: %v", err)
	}
}

func TestSyncToSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 128, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				lsn, err := l.Append(0, bytes.Repeat([]byte{1}, 40))
				if err != nil {
					done <- err
					return
				}
				if err := l.SyncTo(lsn); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	recs, err := l.ReadFrom(1)
	if err != nil || len(recs) != 400 {
		t.Fatalf("records %d, %v", len(recs), err)
	}
}
