package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/chaos/walfault"
	"repro/internal/core"
	"repro/internal/wal"
	"repro/rrq"
)

// The backlog workloads: the same layers as rpc_durable used differently —
// write burst, crash, read burst — at a working set ~10^5 times the
// steady workloads' near-empty queues. Loaders capture request elements
// into a durable queue, ten enqueues per transaction (the paper's batch
// input, §1); the node crashes; backlog_recover times the load and the
// reopen, backlog_drain times servers working the recovered queue off.

const (
	replyQueue = "replies"
	loadBatch  = 10
	// backlog_recover's working set is a property of the workload, not of
	// the window: enough for replay to dwarf the fixed cost of opening a
	// node. The window only decides how often the recovery is repeated.
	recoverElements = 200000
	// backlog_drain's has to outlast the window: more per second than its
	// servers can drain.
	drainPerSecond = 12000
)

type backlogEnv struct {
	cfg   *runCfg
	dir   string
	tr    *tracer
	walFS wal.VFS
	node  *rrq.Node
	led   *ledger
	n     int
	sums  [][]uint32 // per loader, per seq: the checksum its reply must carry
	// the load: wall and CPU time of capturing the n elements
	loadWall, loadCPU time.Duration
}

func (e *backlogEnv) nodeConfig() rrq.NodeConfig {
	return rrq.NodeConfig{
		Dir:         filepath.Join(e.dir, "node"),
		GroupCommit: true,
		NoFsync:     e.cfg.smoke,
		WALFS:       e.walFS,
	}
}

// setupBacklog opens a node with an empty request and reply queue.
func setupBacklog(cfg *runCfg, tr *tracer, walFS wal.VFS) (_ *backlogEnv, err error) {
	dir, err := newScratch(cfg.dir, cfg.workload)
	if err != nil {
		return nil, err
	}
	env := &backlogEnv{cfg: cfg, dir: dir, tr: tr, walFS: walFS,
		led: newLedger(cfg.clerks), sums: make([][]uint32, cfg.clerks)}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.node, err = rrq.StartNode(env.nodeConfig()); err != nil {
		return nil, fmt.Errorf("start node: %w", err)
	}
	for _, q := range []string{requestQueue, replyQueue} {
		if err = env.node.CreateQueue(rrq.QueueConfig{Name: q}); err != nil {
			return nil, fmt.Errorf("create queue: %w", err)
		}
	}
	return env, nil
}

// load captures n requests, split evenly over the loaders, loadBatch
// enqueues per transaction. It stops early, without error, when the log
// dies under it (the durability audit kills it on purpose): what was
// acknowledged by then is what the ledger holds.
func (e *backlogEnv) load(n int) error {
	e.n = n
	cpu0, t0 := cpuTime(), time.Now()
	defer func() { e.loadWall, e.loadCPU = time.Since(t0), cpuTime()-cpu0 }()
	repo := e.node.Repo()
	var wg sync.WaitGroup
	errs := make([]error, e.cfg.clerks)
	for i := 0; i < e.cfg.clerks; i++ {
		share := n / e.cfg.clerks
		if i < n%e.cfg.clerks {
			share++
		}
		wg.Add(1)
		go func(i, share int) {
			defer wg.Done()
			g := newGen(e.cfg.seed, i)
			client := fmt.Sprintf("loader%d", i)
			for seq := 0; seq < share; {
				t := e.node.Begin()
				first := seq
				for ; seq < share && seq < first+loadBatch; seq++ {
					body := g.body()
					e.sums[i] = append(e.sums[i], checksum(body))
					el := rrq.NewRequestElement(rid(i, uint64(seq)), client, replyQueue, body, nil)
					if _, err := repo.Enqueue(t, requestQueue, el, "", nil); err != nil {
						t.Abort()
						errs[i] = fmt.Errorf("load enqueue: %w", err)
						return
					}
				}
				if err := t.Commit(); err != nil {
					errs[i] = fmt.Errorf("load commit: %w", err)
					return
				}
				e.led.sent(i, uint64(seq-1))
			}
		}(i, share)
	}
	wg.Wait()
	if repo.WALErr() != nil {
		return nil
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reopen crashes the node and times StartNode on the same directory until
// the first Dequeue succeeds. The dequeue is aborted: the backlog stays
// whole. It returns the recovery's wall and CPU time, and how far the
// recovered depth is from want.
func (e *backlogEnv) reopen(want int) (wall, cpu time.Duration, off int64, err error) {
	e.node.Crash()
	// A recovery starts in a new process. Here the crashed node's memory is
	// garbage in this one: collect it first, or the recovery shares its
	// time, and peak_rss_mb its space, with the previous life.
	runtime.GC()
	cpu0, t0 := cpuTime(), time.Now()
	if e.node, err = rrq.StartNode(e.nodeConfig()); err != nil {
		return 0, 0, 0, fmt.Errorf("reopen: %w", err)
	}
	repo := e.node.Repo()
	t := repo.Begin()
	_, err = repo.Dequeue(context.Background(), t, requestQueue, "", rrq.DequeueOpts{})
	wall, cpu = time.Since(t0), cpuTime()-cpu0
	if aerr := t.Abort(); err == nil && aerr != nil {
		err = aerr
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("first dequeue after reopen: %w", err)
	}
	depth, err := repo.Depth(requestQueue)
	if err != nil {
		return 0, 0, 0, err
	}
	if off = int64(depth - want); off < 0 {
		off = -off
	}
	return wall, cpu, off, nil
}

// auditQueues walks both queues into the ledger and verifies it: every
// acknowledged rid is in exactly one place, replies carry their request's
// checksum.
func (e *backlogEnv) auditQueues() (violations, error) {
	repo := e.node.Repo()
	var bad violations
	replies, err := repo.ListElements(replyQueue, 0)
	if err != nil {
		return bad, err
	}
	for i := range replies {
		ridStr := replies[i].Headers["rid"]
		e.led.replied(ridStr)
		c, seq, ok := parseRID(ridStr)
		if ok && c < len(e.sums) && seq < uint64(len(e.sums[c])) && !replyHasSum(replies[i].Body, e.sums[c][seq]) {
			bad.add("reply for %s does not echo its request", ridStr)
		}
	}
	pending, err := repo.ListElements(requestQueue, 0)
	if err != nil {
		return bad, err
	}
	for i := range pending {
		req, perr := core.ParseRequest(&pending[i])
		if perr != nil {
			bad.add("queued element %d is not a request: %v", pending[i].EID, perr)
			continue
		}
		e.led.stillQueued(req.RID)
	}
	v := e.led.verifyBacklog()
	v.merge(bad)
	return v, nil
}

func (e *backlogEnv) close() {
	if e.node != nil {
		e.node.Crash() // a checkpoint of the backlog would only slow the teardown
	}
	os.RemoveAll(e.dir)
}

// recoveries repeats crash-and-reopen for at least dur and at least
// three times. One "request" is one element brought back: ops counts
// elements recovered, wall and cpu only the time spent recovering, and
// each sample is one whole recovery. It also returns the median CPU time
// of one recovery.
func (e *backlogEnv) recoveries(dur time.Duration, o *outcome) (phaseResult, time.Duration, error) {
	r := phaseResult{samples: make([][]int64, 1)}
	var cpus []int64
	runtime.ReadMemStats(&r.mem)
	deadline := time.Now().Add(dur)
	for len(r.samples[0]) < 3 || time.Now().Before(deadline) {
		wall, cpu, off, err := e.reopen(e.n)
		if err != nil {
			return r, 0, err
		}
		r.samples[0] = append(r.samples[0], int64(wall))
		cpus = append(cpus, int64(cpu))
		r.wall, r.cpu, r.ops = r.wall+wall, r.cpu+cpu, r.ops+int64(e.n)
		if off > 0 {
			o.failed += off
			o.notes = append(o.notes, fmt.Sprintf("depth after reopen is off by %d", off))
		}
	}
	runtime.ReadMemStats(&r.memEnd)
	return r, time.Duration(percentile(sortedCopy(cpus), 50)), nil
}

func (e *backlogEnv) loadRate() float64 { return div(float64(e.n), e.loadWall.Seconds()) }

func runRecover(cfg *runCfg) (*outcome, error) {
	o := newOutcome(cfg)
	n := recoverElements
	if cfg.smoke {
		n /= 100
	}
	tr := tracerFor(cfg)
	env, setupS, err := timeSetups(cfg.setups,
		func() (*backlogEnv, error) { return setupBacklog(cfg, tr, tr.walFS()) },
		(*backlogEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	// The window opens with the write burst; the recoveries fill the rest.
	if err := env.load(n); err != nil {
		return nil, err
	}
	rest := cfg.window() - env.loadWall
	if cfg.trace {
		rest = rest * 4 / 10
	}
	rec, recCPU, err := env.recoveries(rest, o)
	if err != nil {
		return nil, err
	}
	// The workload's request is one element captured and brought back once:
	// the rate is the load's, the latency the median recovery's, and the CPU
	// the load's plus the median recovery's — the phases are measured apart,
	// so a slow recovery moves one metric, and one of a dozen moves none.
	e2eMetrics(cfg, o, &phaseResult{wall: env.loadWall, ops: int64(n), cpu: env.loadCPU + recCPU, samples: rec.samples}, setupS)
	o.attempted += rec.ops
	o.info = append(o.info, fmt.Sprintf("%d elements loaded in %.2f s; each sample one recovery of them, %.0f elements/s",
		n, env.loadWall.Seconds(), rec.rate()))
	if cfg.trace {
		// Each recovery is a new life of the node with new counters, so the
		// program's own counters have no delta to report here.
		win := &traceWindow{before: snapLayers(tr, nil, nil)}
		tr.on.Store(true)
		traced, _, err := env.recoveries((cfg.window()-env.loadWall)*6/10, o)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		win.after = snapLayers(tr, nil, nil)
		if err := tracedMetrics(cfg, o, tr, win, &rec, &traced); err != nil {
			return nil, err
		}
		o.metrics["e2e.recover_s"] = float64(percentile(sortedCopy(rec.samples[0]), 50)) / 1e9
		o.metrics["e2e.load_per_s"] = env.loadRate()
	}
	v, err := env.auditQueues()
	if err != nil {
		return nil, err
	}
	o.fail(v)
	if cfg.trace {
		if err := durabilityAudit(cfg, o, tr); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// durabilityAudit is the acked-implies-durable check with a crash that
// really loses data. Killing a process leaves the operating system's
// cache intact, so the audit puts the walfault layer under the log: it
// lets a number of writes through, tears the next one, and at Crash
// discards what was never synced. Then the node is reopened from those
// bytes: every acknowledged rid must be present, and a transaction that
// was never acknowledged must be present whole or not at all.
func durabilityAudit(cfg *runCfg, o *outcome, tr *tracer) error {
	const rounds = 3
	var dropped int64
	for round := 0; round < rounds; round++ {
		d, acked, v, err := durabilityRound(cfg, tr, round)
		if err != nil {
			return fmt.Errorf("durability audit round %d: %w", round, err)
		}
		dropped += d
		o.attempted += acked
		o.fail(v)
	}
	o.metrics["wal.dropped_bytes"] = float64(dropped)
	if dropped == 0 {
		o.failed++
		o.notes = append(o.notes, "durability audit: the crash dropped no bytes, so it proved nothing")
	}
	return nil
}

// durabilityRound loads until the injected write failure kills the log,
// crashes, reopens, and audits what survived. It returns the bytes the
// crash destroyed and how many rids had been acknowledged.
func durabilityRound(cfg *runCfg, tr *tracer, round int) (dropped, acked int64, v violations, err error) {
	fault := walfault.New(cfg.seed*31 + int64(round))
	rc := *cfg
	rc.smoke = false // with NoFsync the log never calls Sync, and walfault's watermark would never move
	env, err := setupBacklog(&rc, tr, timingFS{fault, tr})
	if err != nil {
		return 0, 0, v, err
	}
	defer env.close()
	fault.FailAfterWrites(20 + round*15)
	if err := env.load(4000); err != nil {
		return 0, 0, v, err
	}
	if !fault.Failed() {
		return 0, 0, v, fmt.Errorf("the injected write failure never fired")
	}
	env.node.Crash()
	if err := fault.Crash(); err != nil {
		return 0, 0, v, err
	}
	env.walFS = nil // the bytes are what they are now; reopen on the plain filesystem
	if env.node, err = rrq.StartNode(env.nodeConfig()); err != nil {
		return 0, 0, v, err
	}
	if v, err = env.auditQueues(); err != nil {
		return 0, 0, v, err
	}
	v.merge(env.auditAtomicity())
	for c := range env.led.clients {
		acked += int64(env.led.clients[c].sent)
	}
	return fault.DroppedBytes(), acked, v, nil
}

// auditAtomicity checks that each loading transaction (loadBatch
// consecutive rids of one loader) survived whole or not at all. It reads
// the ledger auditQueues has just filled.
func (e *backlogEnv) auditAtomicity() violations {
	var v violations
	for c := range e.led.clients {
		cl := &e.led.clients[c]
		for first := 0; first < len(cl.queued); first += loadBatch {
			present := 0
			last := first + loadBatch
			if last > len(e.sums[c]) {
				last = len(e.sums[c])
			}
			for seq := first; seq < last; seq++ {
				present += int(at(cl.queued, uint64(seq)))
			}
			if present != 0 && present != last-first {
				v.add("transaction %s..%d is partially present (%d of %d)", rid(c, uint64(first)), last-1, present, last-first)
			}
		}
	}
	return v
}
