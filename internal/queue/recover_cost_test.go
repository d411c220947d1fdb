package queue

// Recovery cost, pinned. The backlog here is the shape benchmark/'s
// backlog_recover loads — request elements of ~256 B with three headers
// and a reply queue, ten enqueues per transaction — so the per-element
// numbers carry over to it.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	rlog "repro/internal/obs/log"
)

// loadBacklog fills queue "q" in a fresh repository under dir with n
// elements, ten per transaction, and returns it for the caller to crash.
func loadBacklog(tb testing.TB, dir string, opts Options, n int) *Repository {
	tb.Helper()
	r, _, err := Open(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, q := range []string{"q", "replies"} {
		if err := r.CreateQueue(QueueConfig{Name: q}); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pool := make([]byte, 4096)
	rng.Read(pool)
	for i := 0; i < n; {
		t := r.Begin()
		for j := 0; j < 10 && i < n; i, j = i+1, j+1 {
			size := 192 + rng.Intn(128)
			off := rng.Intn(len(pool) - size)
			e := Element{
				Body:    pool[off : off+size],
				ReplyTo: "replies",
				Headers: map[string]string{"rid": fmt.Sprintf("c0.%d", i), "client": "loader0", "kind": "request"},
			}
			if _, err := r.Enqueue(t, "q", e, "", nil); err != nil {
				tb.Fatal(err)
			}
		}
		if err := t.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

func BenchmarkRecoverBacklog(b *testing.B) {
	const n = 50000
	dir := b.TempDir()
	opts := Options{NoFsync: true, GroupCommit: true}
	loadBacklog(b, dir, opts, n).Crash()
	b.ReportAllocs()
	b.ResetTimer()
	var spent time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r, _, err := Open(dir, opts)
		spent += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if d, _ := r.Depth("q"); d != n {
			b.Fatalf("recovered depth %d, want %d", d, n)
		}
		r.Crash()
		runtime.GC() // a recovery starts in a new process: the last life's heap is not its cost
		b.StartTimer()
	}
	b.ReportMetric(float64(spent.Microseconds())/float64(b.N)/n, "µs/elem")
}

// TestRecoverAllocationCeiling pins what one replayed enqueue may cost the
// allocator. Before the redo split it was 17.2 mallocs and 2.3 KiB; before
// elements had one packed resident form, 8.1 and 1014 B. Now 4.1 — the
// elem, its body, its packed headers, the redo item — and 638 B.
func TestRecoverAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the ceiling is meaningless")
	}
	const n = 20000
	dir := t.TempDir()
	// Small segments, so that the pipeline's own buffers (a few segments,
	// whatever the log's length) are small next to what the elements cost.
	opts := Options{NoFsync: true, SegmentSize: 256 << 10}
	loadBacklog(t, dir, opts, n).Crash()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, _, err := Open(dir, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	if d, _ := r.Depth("q"); d != n {
		t.Fatalf("recovered depth %d, want %d", d, n)
	}
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f mallocs, %.0f B allocated per replayed enqueue", mallocs, bytes)
	if mallocs > 5 {
		t.Errorf("%.1f mallocs per replayed enqueue, ceiling 5", mallocs)
	}
	if bytes > 700 {
		t.Errorf("%.0f B allocated per replayed enqueue, ceiling 700", bytes)
	}
}

// liveHeap is the heap still reachable after a full collection (two: the
// first may only finish a cycle that was already under way).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestResidentBytesPerElement pins what a queued element costs to keep: the
// live heap a backlog of loadBacklog's elements (~256 B of body, three
// headers, a reply queue: ~300 B encoded) adds, per element, whether it was
// enqueued in this life or recovered. See DESIGN.md §10 for the itemisation;
// before elements had one packed resident form it was 923 B.
func TestResidentBytesPerElement(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the ceiling is meaningless")
	}
	const n, ceiling = 50000, 560
	dir := t.TempDir()
	opts := Options{NoFsync: true, SegmentSize: 256 << 10}
	check := func(what string, r *Repository, base uint64) {
		t.Helper()
		per := float64(liveHeap()-base) / n
		if d, _ := r.Depth("q"); d != n { // also what keeps r alive across liveHeap
			t.Fatalf("%s: depth %d, want %d", what, d, n)
		}
		t.Logf("%s: %.0f B resident per element", what, per)
		if per > ceiling {
			t.Errorf("%s: %.0f B resident per element, ceiling %d", what, per, ceiling)
		}
	}
	base := liveHeap()
	r := loadBacklog(t, dir, opts, n)
	check("enqueued", r, base)
	r.Crash()
	r = nil
	base = liveHeap()
	r, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	check("recovered", r, base)
}

// TestRecoveryIsAccountedFor: every Open says what its log replay cost, in
// the recovery.* gauges and, with the same numbers, in the "repository
// recovered" event.
func TestRecoveryIsAccountedFor(t *testing.T) {
	const n = 3000
	dir := t.TempDir()
	opts := Options{NoFsync: true, SegmentSize: 64 << 10}
	loadBacklog(t, dir, opts, n).Crash()
	ring := rlog.NewRing(256)
	opts.Logger = rlog.New(rlog.LevelInfo, nil, ring)
	r, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	snap := r.Metrics().Snapshot()
	if got, want := gaugeOf(snap, "recovery.records"), int64(n/10+2); got != want { // the transactions and two CreateQueues
		t.Fatalf("recovery.records = %d, want %d", got, want)
	}
	for _, g := range []string{"recovery.bytes", "recovery.scan_ns", "recovery.decode_ns", "recovery.apply_ns", "recovery.wall_ns"} {
		if gaugeOf(snap, g) <= 0 {
			t.Fatalf("%s = %d after replaying %d elements", g, gaugeOf(snap, g), n)
		}
	}
	if wall := gaugeOf(snap, "recovery.wall_ns"); gaugeOf(snap, "recovery.decode_ns") > wall || gaugeOf(snap, "recovery.apply_ns") > wall {
		t.Fatalf("a stage was busy for longer than the recovery took: %+v", r.recovery)
	}
	var event string
	for _, e := range ring.Recent(0) {
		if e.Msg == "repository recovered" {
			event = string(e.AppendJSON(nil))
		}
	}
	for _, g := range []string{"records", "bytes", "scan_ns", "decode_ns", "apply_ns", "wall_ns"} {
		want := fmt.Sprintf("%q:%d", g, gaugeOf(snap, "recovery."+g))
		if !strings.Contains(event, want) {
			t.Fatalf("the recovered event %s lacks %s", event, want)
		}
	}
}
