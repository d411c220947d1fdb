package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// runCfg is one workload run: what the driver's four flags (and the
// suite's few extras) decide.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch base; every set-up gets a fresh directory under it
	clerks   int
	setups   int  // how many times to set up (the median is setup_s)
	smoke    bool // tests: NoFsync everywhere, no layer cells
	obsTrace bool // suite only: NodeConfig.Trace and the clerk tracer on
	spans    string
}

func (c *runCfg) noFsync() bool { return c.smoke || c.workload == "rpc_nofsync" }

func (c *runCfg) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is a tenth of the window, at most 2 s: long enough for the
// connections, the pools and the first log segment to exist.
func (c *runCfg) warmup() time.Duration {
	w := c.window() / 10
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int64
	failed    int64
	notes     []string // what failed, for the human reading the output
	info      []string // measured but not declared as metrics (sample counts, percentile used)
	metrics   map[string]float64
}

func (o *outcome) fail(v violations) {
	o.failed += v.n
	o.notes = append(o.notes, v.msgs...)
}

// newOutcome starts every metric of the run's mode at zero, so a workload
// fills in only the seams it crosses.
func newOutcome(cfg *runCfg) *outcome {
	o := &outcome{metrics: make(map[string]float64)}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	for _, s := range specs {
		o.metrics[s.Name] = 0
	}
	return o
}

func runWorkload(cfg *runCfg) (*outcome, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	switch cfg.workload {
	case "rpc_durable", "rpc_nofsync", "rpc_sync_repl":
		return runRPC(cfg)
	case "local_volatile":
		return runLocal(cfg)
	case "backlog_recover":
		return runRecover(cfg)
	case "backlog_drain":
		return runDrain(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// timeSetups sets the workload up n times, tearing all but the last down
// again, and returns the last environment with the median set-up time: a
// single set-up is a handful of fsyncs and does not repeat on its own.
func timeSetups[E any](n int, setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart // the first set-up also pays for process start
		}
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(e)
			// A torn-down set-up's heap must not sit under the next one's:
			// peak_rss_mb is one set-up's and one window's, not the pile's.
			runtime.GC()
		} else {
			env = e
		}
	}
	return env, medianFloat(times), nil
}

// traceWindow brackets the traced stretch with every layer counter.
type traceWindow struct{ before, after layerSnap }

// plan lays out the run. Untraced: warm-up, then the timed window.
// Traced: warm-up, then untraced, traced, untraced stretches — the traced
// one in the middle, so that a disk that drifts during the run moves both
// sides of the overhead comparison alike — with reg and log snapshotted
// as the traced stretch starts and ends.
func plan(cfg *runCfg, tr *tracer, reg *obs.Registry, log *wal.Log) ([]phase, *traceWindow) {
	phases := []phase{{dur: cfg.warmup()}}
	if !cfg.trace {
		return append(phases, phase{dur: cfg.window(), record: true}), nil
	}
	win := &traceWindow{}
	return append(phases,
		phase{dur: cfg.window() * 2 / 10, record: true},
		phase{dur: cfg.window() * 6 / 10, record: true,
			begin: func() { win.before = snapLayers(tr, reg, log); tr.on.Store(true) },
			end:   func() { tr.on.Store(false); win.after = snapLayers(tr, reg, log) }},
		phase{dur: cfg.window() * 2 / 10, record: true}), win
}

// split returns the untraced and the traced part of a run's results
// (traced is nil for an untraced run).
func split(cfg *runCfg, res []phaseResult) (untraced, traced *phaseResult) {
	if !cfg.trace {
		return &res[1], nil
	}
	a, b := &res[1], &res[3]
	m := phaseResult{wall: a.wall + b.wall, cpu: a.cpu + b.cpu, ops: a.ops + b.ops, errs: a.errs + b.errs,
		slices: append(append([]slice(nil), a.slices...), b.slices...)}
	for w := range a.samples {
		m.samples = append(m.samples, append(a.samples[w], b.samples[w]...))
	}
	return &m, &res[2]
}

// e2eMetrics fills the end-to-end metrics (untraced run) or their
// per-layer shadows (traced run) from the timed phase.
func e2eMetrics(cfg *runCfg, o *outcome, r *phaseResult, setupS float64) {
	lat := sortedCopy(r.samples...)
	tail := tailPercent(len(lat))
	p50, pTail := usOf(percentile(lat, 50)), usOf(percentile(lat, tail))
	o.attempted += r.ops + r.errs
	o.failed += r.errs
	o.info = append(o.info, fmt.Sprintf("samples %d, tail percentile p%.4g = %.1f us", len(lat), tail, pTail))
	if len(r.slices) > 0 {
		q := r.quarterRates()
		o.info = append(o.info, fmt.Sprintf("whole window %.0f /s, %.4g cpu ms/req; quarter rates %.0f %.0f %.0f %.0f /s (spread %.3f)",
			r.rate(), sliceCPUms(slice{r.wall, r.cpu, r.ops}), q[0], q[1], q[2], q[3], r.sliceSpread()))
	}
	if cfg.trace {
		o.metrics["e2e.lat_p99_us"] = pTail
		o.metrics["e2e.samples"] = float64(len(lat))
		o.metrics["e2e.cpu_ms_per_req"] = r.sliceMedian(sliceCPUms)
		o.metrics["e2e.slice_spread"] = r.sliceSpread()
		return
	}
	// The rate is the median slice's, not the window's total: a stall of
	// the shared disk then costs a slice, not the run.
	o.metrics["req_per_s"] = r.sliceMedian(sliceRate)
	o.metrics["lat_p50_us"] = p50
	o.metrics["peak_rss_mb"] = peakRSSMB()
	o.metrics["setup_s"] = setupS
}

// layerSnap is every counter the traced stretch is bracketed with.
type layerSnap struct {
	at                               time.Time
	connBytes, connWrites, connReads int64
	walBytes, walWrites, walSyncNS   int64
	replBytes, replNS                int64
	log                              wal.Stats
	reg                              obs.Snapshot
	haveLog                          bool
}

func snapLayers(tr *tracer, reg *obs.Registry, log *wal.Log) layerSnap {
	s := layerSnap{
		at:        time.Now(),
		connBytes: tr.connBytes.Load(), connWrites: tr.connWrites.Load(), connReads: tr.connReads.Load(),
		walBytes: tr.walBytes.Load(), walWrites: tr.walWrites.Load(), walSyncNS: tr.walSyncNS.Load(),
		replBytes: tr.replBytes.Load(), replNS: tr.replNS.Load(),
	}
	if reg != nil {
		s.reg = reg.Snapshot()
	}
	if log != nil {
		s.log, s.haveLog = log.Stats(), true
	}
	return s
}

// layerMetrics turns the difference of the window's two snapshots into the
// boundary and program-counter metrics, per completed request.
func layerMetrics(o *outcome, tr *tracer, win *traceWindow, reqs float64) {
	m, a, b := o.metrics, win.before, win.after
	wall := b.at.Sub(a.at).Seconds()
	per := func(x int64) float64 { return div(float64(x), reqs) }

	m["rpc.bytes_per_req"] = per(b.connBytes - a.connBytes)
	m["rpc.writes_per_req"] = per(b.connWrites - a.connWrites)
	m["rpc.reads_per_req"] = per(b.connReads - a.connReads)

	tr.mu.Lock()
	fsyncs, exch := sortedCopy(tr.fsyncs), sortedCopy(tr.exch)
	tr.mu.Unlock()
	m["wal.fsyncs_per_req"] = per(int64(len(fsyncs)))
	m["wal.fsync_us_p50"] = usOf(percentile(fsyncs, 50))
	m["wal.fsync_us_p99"] = usOf(percentile(fsyncs, 99))
	m["wal.write_calls_per_req"] = per(b.walWrites - a.walWrites)
	m["wal.bytes_per_req"] = per(b.walBytes - a.walBytes)
	m["wal.fsync_busy_frac"] = div(float64(b.walSyncNS-a.walSyncNS)/1e9, wall)
	if a.haveLog && b.haveLog {
		m["wal.appends_per_fsync"] = div(float64(b.log.Appends-a.log.Appends), float64(b.log.Syncs-a.log.Syncs))
	}

	m["replica.exchanges_per_req"] = per(int64(len(exch)))
	m["replica.exchange_us_p50"] = usOf(percentile(exch, 50))
	m["replica.exchange_us_p99"] = usOf(percentile(exch, 99))
	m["replica.bytes_per_req"] = per(b.replBytes - a.replBytes)
	m["replica.busy_frac"] = div(float64(b.replNS-a.replNS)/1e9, wall)

	// Counters the program keeps itself. An instrument the program does not
	// have reports -1, never a failure: the benchmark must keep running
	// across a change that renames or removes one.
	if b.reg.Counters == nil {
		return // no single registry spans this stretch
	}
	histMean := func(name string) float64 {
		hb, ok := b.reg.Histograms[name]
		if !ok {
			return absentCounter
		}
		ha := a.reg.Histograms[name]
		return div(float64(hb.Sum-ha.Sum), float64(hb.Count-ha.Count)) / 1e3
	}
	counter := func(name string) (float64, bool) {
		cb, ok := b.reg.Counters[name]
		return float64(cb - a.reg.Counters[name]), ok
	}
	m["wal.group_wait_us_mean"] = histMean("wal.group_wait_ns")
	m["txn.commit_us_mean"] = histMean("txn.commit_ns")
	m["queue.shard_lock_wait_us_mean"] = histMean("queue.shard_lock_wait_ns")
	m["queue.dequeue_wait_us_mean"] = histMean("queue.dequeue_wait_ns")
	m["lock.waits_per_req"] = absentCounter
	if n, ok := counter("lock.waits"); ok {
		m["lock.waits_per_req"] = div(n, reqs)
	}
	if n, ok := counter("rpc.server.requests"); ok { // a node that does not listen has no such counter, and no calls
		m["rpc.calls_per_req"] = div(n, reqs)
	}
	m["queue.fastpath_hit_frac"] = absentCounter
	hits, ok1 := counter("queue.fastpath_hits")
	falls, ok2 := counter("queue.fastpath_fallbacks")
	if ok1 && ok2 {
		m["queue.fastpath_hit_frac"] = div(hits, hits+falls)
	}
}

// procMetrics reports the traced stretch's allocation and GC cost.
func procMetrics(o *outcome, r *phaseResult) {
	reqs := float64(r.ops)
	o.metrics["proc.allocs_per_req"] = div(float64(r.memEnd.Mallocs-r.mem.Mallocs), reqs)
	o.metrics["proc.alloc_bytes_per_req"] = div(float64(r.memEnd.TotalAlloc-r.mem.TotalAlloc), reqs)
	o.metrics["proc.gc_pause_ms"] = float64(r.memEnd.PauseTotalNs-r.mem.PauseTotalNs) / 1e6
}

// tracedMetrics fills what every traced run reports whatever its
// workload: the layer counters over the traced stretch, the overhead of
// tracing, process cost, disk drift, and the layer cells.
func tracedMetrics(cfg *runCfg, o *outcome, tr *tracer, win *traceWindow, untraced, traced *phaseResult) error {
	o.attempted += traced.ops + traced.errs
	o.failed += traced.errs
	layerMetrics(o, tr, win, float64(traced.ops))
	o.metrics["bench.trace_overhead_frac"] = 1 - div(traced.rate(), untraced.rate())
	procMetrics(o, traced)
	us, err := hostFsyncUS(cfg.dir, 200)
	if err != nil {
		return fmt.Errorf("host fsync probe: %w", err)
	}
	o.metrics["host.fsync_us_p50"] = us
	if cfg.smoke {
		return nil
	}
	return runCells(cfg, o)
}

func runRPC(cfg *runCfg) (*outcome, error) {
	o := newOutcome(cfg)
	tr := tracerFor(cfg)
	env, setupS, err := timeSetups(cfg.setups,
		func() (*rpcEnv, error) { return setupRPC(cfg, tr) },
		(*rpcEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	phases, win := plan(cfg, tr, env.node.Metrics(), env.node.Repo().Log())
	timed, traced := split(cfg, runPhases(cfg.clerks, phases, env.request, nil))
	e2eMetrics(cfg, o, timed, setupS)
	if cfg.trace {
		if err := tracedMetrics(cfg, o, tr, win, timed, traced); err != nil {
			return nil, err
		}
		seg, lat := tr.segmentMeans()
		for i, name := range timelineSegments {
			o.metrics[name] = seg[i]
		}
		o.metrics["core.timeline_lat_us"] = lat
		if err := writeSpans(cfg.spans, tr); err != nil {
			return nil, err
		}
	}
	o.fail(env.led.verifyRequests())
	return o, nil
}

var timelineSegments = [5]string{
	"core.clerk_self_us", "core.qm_enqueue_us", "core.server_pickup_us", "core.handler_us", "core.reply_path_us",
}
