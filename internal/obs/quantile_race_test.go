package obs

import (
	"sync"
	"testing"
)

// TestQuantileDigestObserveSnapshotRace hammers one digest with writers
// and *dedicated* reader goroutines (the existing concurrent test only
// interleaves reads inside writer goroutines): Observe racing against
// continuous Quantile/Snapshot/Count on one ring, with percentile
// monotonicity checked on every Snapshot. Monotonicity is a property of
// one window: two Quantile calls take two lock holds, and writers may
// slide the window between them, so only a Snapshot's percentiles must
// be ordered.
func TestQuantileDigestObserveSnapshotRace(t *testing.T) {
	d := NewQuantileDigest(512)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				d.Observe(int64(g*2000 + i))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_ = d.Quantile(0.50)
				snap := d.Snapshot()
				if snap.P50 > snap.P95 || snap.P95 > snap.P99 {
					t.Errorf("snapshot percentiles out of order: p50 %d, p95 %d, p99 %d", snap.P50, snap.P95, snap.P99)
					return
				}
				_ = d.Count()
			}
		}()
	}
	wg.Wait()
	if got := d.Count(); got != 8000 {
		t.Fatalf("lost observations: count %d, want 8000", got)
	}
	if d.Quantile(1.0) == 0 {
		t.Fatal("max quantile empty after 8000 observations")
	}
}
