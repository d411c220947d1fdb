package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// gateRecorder captures every gate invocation.
type gateRecorder struct {
	mu    sync.Mutex
	calls []gateCall
	fail  atomic.Bool
	errV  error
}

type gateCall struct {
	upTo  LSN
	seg   string
	off   int64
	batch []byte
}

func (g *gateRecorder) gate(upTo LSN, seg string, off int64, batch []byte) error {
	if g.fail.Load() {
		return g.errV
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var cp []byte
	if batch != nil {
		cp = append(cp, batch...)
	}
	g.calls = append(g.calls, gateCall{upTo: upTo, seg: seg, off: off, batch: cp})
	return nil
}

func (g *gateRecorder) snapshot() []gateCall {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]gateCall(nil), g.calls...)
}

// TestGateCoversEveryDurableLSN: under concurrent commit, every published
// durable LSN must have been covered by a gate call first — the gate is
// the replication hook sync mode hangs its zero-acked-loss rule on.
func TestGateCoversEveryDurableLSN(t *testing.T) {
	rec := &gateRecorder{}
	l, err := Open(t.TempDir(), Options{NoFsync: true, Gate: rec.gate})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const committers, perC = 4, 25
	done := make(chan error, committers)
	for c := 0; c < committers; c++ {
		go func() {
			for i := 0; i < perC; i++ {
				lsn, err := l.Append(0, []byte("rec"))
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
	for c := 0; c < committers; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	calls := rec.snapshot()
	if len(calls) == 0 {
		t.Fatal("gate never called")
	}
	var max LSN
	for _, c := range calls {
		if c.upTo > max {
			max = c.upTo
		}
	}
	if max != LSN(committers*perC) {
		t.Fatalf("gate high-water %d, want %d", max, committers*perC)
	}
	// Contiguous single-segment batches carry the raw bytes and their
	// placement; at least the common case must take the fast path.
	withBatch := 0
	for _, c := range calls {
		if c.batch != nil {
			withBatch++
			if c.seg == "" {
				t.Fatal("batch gate call without a segment path")
			}
		}
	}
	if withBatch == 0 {
		t.Fatal("no gate call carried batch bytes")
	}
}

// TestGateErrorPoisonsLog: a gate failure is a commit-rule failure — the
// durable-LSN promise cannot be released, so the log must poison exactly
// as a failed fsync would, and stay poisoned.
func TestGateErrorPoisonsLog(t *testing.T) {
	rec := &gateRecorder{errV: errors.New("standby unreachable")}
	l, err := Open(t.TempDir(), Options{NoFsync: true, Gate: rec.gate})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append(0, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}

	rec.fail.Store(true)
	lsn2, err := l.Append(0, []byte("gated"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SyncTo(lsn2); !errors.Is(err, rec.errV) {
		t.Fatalf("SyncTo past failing gate: %v, want wrapped gate error", err)
	}
	if err := l.Err(); !errors.Is(err, rec.errV) {
		t.Fatalf("Err() = %v, want sticky gate error", err)
	}
	if _, err := l.Append(0, []byte("after")); !errors.Is(err, rec.errV) {
		t.Fatalf("append after gate poison: %v", err)
	}
}

// TestGateInlineForce: an uncontended commit forces inline, and the
// gate sees that flush as one contiguous append — the frame's bytes, the
// segment they landed in and the offset — before SyncTo returns.
func TestGateInlineForce(t *testing.T) {
	rec := &gateRecorder{}
	l, err := Open(t.TempDir(), Options{NoFsync: true, Gate: rec.gate})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, payload := range []string{"x", "yy"} {
		lsn, err := l.Append(0, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SyncTo(lsn); err != nil {
			t.Fatal(err)
		}
		calls := rec.snapshot()
		if len(calls) != i+1 {
			t.Fatalf("%d gate calls after %d commits, want one per commit", len(calls), i+1)
		}
		c := calls[i]
		want := appendFrame(nil, lsn, 0, []byte(payload))
		if c.upTo != lsn || c.seg == "" || string(c.batch) != string(want) {
			t.Fatalf("gate call %d = {upTo %d seg %q batch %x}, want {%d, the active segment, %x}",
				i, c.upTo, c.seg, c.batch, lsn, want)
		}
		if i == 1 && c.off != int64(len(calls[0].batch)) {
			t.Fatalf("second batch at offset %d, want %d", c.off, len(calls[0].batch))
		}
	}
}
