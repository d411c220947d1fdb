package wal

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func benchLog(b *testing.B, opts Options) *Log {
	b.Helper()
	l, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

func BenchmarkAppendNoFsync(b *testing.B) {
	l := benchLog(b, Options{NoFsync: true})
	payload := make([]byte, 128)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendNoFsyncWithSnapshots is the observability worst case:
// the instrumented append hot path while a concurrent reader snapshots
// the shared registry every 100µs (a hyperactive admin endpoint).
// Compare with BenchmarkAppendNoFsync — the instruments themselves are
// identical in both (appends always count); this adds only snapshot
// contention, which the lock-free counters shrug off.
func BenchmarkAppendNoFsyncWithSnapshots(b *testing.B) {
	reg := obs.NewRegistry()
	l := benchLog(b, Options{NoFsync: true, Metrics: reg})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	payload := make([]byte, 128)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkAppendFsync(b *testing.B) {
	l := benchLog(b, Options{})
	payload := make([]byte, 128)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn, err := l.Append(1, payload)
		if err == nil {
			err = l.SyncTo(lsn)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendGroupCommitParallel(b *testing.B) {
	l := benchLog(b, Options{})
	payload := make([]byte, 128)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			lsn, err := l.Append(1, payload)
			if err != nil {
				b.Error(err)
				return
			}
			if err := l.SyncTo(lsn); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkRecoveryScan(b *testing.B) {
	l := benchLog(b, Options{NoFsync: true})
	payload := make([]byte, 128)
	for i := 0; i < 10000; i++ {
		if _, err := l.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := l.ReadFrom(1)
		if err != nil || len(recs) != 10000 {
			b.Fatalf("%d records, %v", len(recs), err)
		}
	}
}
