package main

import "encoding/json"

// The benchmark's declared surface: the one table. BENCHMARK.json at the
// repository root is this file in the driver's schema, written by
// `benchmark spec > BENCHMARK.json`; bench_test.go fails when the two
// differ, so a metric cannot be emitted without being declared.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" | "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening that counts as a regression
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// DeviceFree: the workload never waits for the disk, so its numbers do
	// not move with the (shared, virtual) disk's mood and repeat within a
	// few percent; compare holds it to tightBound.
	DeviceFree bool `json:"-"`
}

// tightBound is the regression bound compare applies on the device-free
// workloads, where it is tighter than the declared one. BENCHMARK.json has
// one bound per metric for all workloads, which the noisiest workload
// sets; a CPU-bound workload can be held to the tenth the issue asked for.
const tightBound = 0.10

// boundFor is the bound compare judges workload w's metric m by.
func boundFor(w workloadSpec, m metricSpec) float64 {
	if w.DeviceFree && tightBound < m.Bound {
		return tightBound
	}
	return m.Bound
}

// runSeconds is the window the driver measures with: as long as the
// driver's 4 + 22 x 6 runs and its time cap allow with a fifth to spare
// (a run is the window plus 2 s, plus 15 s of set-ups on backlog_drain).
const runSeconds = 15

// benchmarkJSON renders the table as BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	data, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds, workloads, endToEnd, perLayer}, "", "  ")
	return append(data, '\n'), err
}

var workloads = []workloadSpec{
	{Name: "rpc_durable", Why: "unit of truth: Transceive over TCP to durable queues, group commit, real fsync; the wal device does most of the work"},
	{Name: "rpc_nofsync", DeviceFree: true, Why: "same request with NoFsync: rpc+core+queue+txn+log framing CPU do all the work; a wal-device change must show nothing here"},
	{Name: "rpc_sync_repl", Why: "rpc_durable plus sync replication to an in-process standby over loopback; replica ship+remote fsync+ack dominates"},
	{Name: "local_volatile", DeviceFree: true, Why: "no RPC, no log: producer/consumer pairs on volatile queues through the ring; bypass workload for every durable-path change"},
	{Name: "backlog_recover", Why: "load a 200k-element durable backlog, crash, reopen: write burst then replay, what a faster commit that lengthens redo moves"},
	{Name: "backlog_drain", Why: "servers drain a deep recovered backlog; dequeue-heavy at a working set far above the steady workloads' near-empty queues"},
}

// endToEnd metrics are reported by every workload with tracing off. What
// one "request" is differs per workload and is stated in README.md.
var endToEnd = []metricSpec{
	{"req_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics are reported by every workload in the traced run; a
// seam the workload does not cross reports 0 (which is the "should not
// move" prediction made visible), a program counter that does not exist
// reports -1.
var perLayer = []metricSpec{
	// the end-to-end numbers that do not repeat tightly enough to gate on
	{"e2e.lat_p99_us", "us", "lower", 0},
	{"e2e.samples", "count", "higher", 0},
	{"e2e.cpu_ms_per_req", "ms", "lower", 0},
	{"e2e.slice_spread", "frac", "lower", 0},
	{"e2e.load_per_s", "1/s", "higher", 0},
	{"e2e.recover_s", "s", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"host.fsync_us_p50", "us", "lower", 0},
	{"proc.allocs_per_req", "count", "lower", 0},
	{"proc.alloc_bytes_per_req", "B", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	// boundary decorators: the request's timeline, cut at five points
	{"core.clerk_self_us", "us", "lower", 0},
	{"core.qm_enqueue_us", "us", "lower", 0},
	{"core.server_pickup_us", "us", "lower", 0},
	{"core.handler_us", "us", "lower", 0},
	{"core.reply_path_us", "us", "lower", 0},
	{"core.timeline_lat_us", "us", "lower", 0},
	{"rpc.bytes_per_req", "B", "lower", 0},
	{"rpc.writes_per_req", "count", "lower", 0},
	{"rpc.reads_per_req", "count", "lower", 0},
	{"rpc.calls_per_req", "count", "lower", 0},
	{"wal.fsyncs_per_req", "count", "lower", 0},
	{"wal.fsync_us_p50", "us", "lower", 0},
	{"wal.fsync_us_p99", "us", "lower", 0},
	{"wal.write_calls_per_req", "count", "lower", 0},
	{"wal.bytes_per_req", "B", "lower", 0},
	{"wal.fsync_busy_frac", "frac", "lower", 0},
	{"wal.appends_per_fsync", "count", "higher", 0},
	{"wal.dropped_bytes", "B", "higher", 0},
	{"replica.exchanges_per_req", "count", "lower", 0},
	{"replica.exchange_us_p50", "us", "lower", 0},
	{"replica.exchange_us_p99", "us", "lower", 0},
	{"replica.bytes_per_req", "B", "lower", 0},
	{"replica.busy_frac", "frac", "lower", 0},
	// layer cells: direct timed calls, one goroutine, fixed op counts
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.append_nosync_us", "us", "lower", 0},
	{"wal.read_mb_per_s", "MB/s", "higher", 0},
	{"txn.commit_us", "us", "lower", 0},
	{"lock.acquire_release_us", "us", "lower", 0},
	{"queue.durable_pair_us", "us", "lower", 0},
	{"queue.tagged_enqueue_us", "us", "lower", 0},
	{"queue.volatile_pair_us", "us", "lower", 0},
	{"queue.ring_pair_us", "us", "lower", 0},
	{"queue.deep_dequeue_us", "us", "lower", 0},
	{"queue.replay_us_per_rec", "us", "lower", 0},
	{"storage.checkpoint_ms", "ms", "lower", 0},
	{"rpc.roundtrip_us", "us", "lower", 0},
	{"rpc.allocs_per_call", "count", "lower", 0},
	{"replica.gate_apply_us", "us", "lower", 0},
	{"core.local_transceive_us", "us", "lower", 0},
	// counters the program already keeps (Node.Metrics deltas)
	{"wal.group_wait_us_mean", "us", "lower", 0},
	{"txn.commit_us_mean", "us", "lower", 0},
	{"lock.waits_per_req", "count", "lower", 0},
	{"queue.shard_lock_wait_us_mean", "us", "lower", 0},
	{"queue.dequeue_wait_us_mean", "us", "lower", 0},
	{"queue.fastpath_hit_frac", "frac", "higher", 0},
}

// absentCounter is what a program-counter metric reports when the program
// keeps no such instrument; programCounters are the metrics it can apply
// to (the suite's result file writes null for them).
const absentCounter = -1

var programCounters = map[string]bool{
	"wal.group_wait_us_mean": true, "txn.commit_us_mean": true, "lock.waits_per_req": true,
	"queue.shard_lock_wait_us_mean": true, "queue.dequeue_wait_us_mean": true, "queue.fastpath_hit_frac": true,
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
