package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/lock"
	"repro/internal/queue"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/rrq"
)

// Layer cells: each layer's public functions, called directly from one
// goroutine at a fixed operation count with the workloads' payloads. A
// cell does not depend on the workload, so a traced run runs only the
// cells of layers its workload's request crosses — the cost is on record
// next to the end-to-end number it is meant to explain — and, as with the
// boundary decorators, a layer the workload does not cross reports 0.

// cellUS times ops calls of f in five chunks after a warm-up of a tenth,
// and returns the median chunk's µs per call: a single GC cycle or
// scheduler hiccup moves one chunk, not the result.
func cellUS(ops int, f func(i int) error) (float64, error) {
	for i := 0; i < ops/10; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	const chunks = 5
	per := make([]float64, 0, chunks)
	n := ops / chunks
	for c := 0; c < chunks; c++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/1e3/float64(n))
	}
	sort.Float64s(per)
	return per[chunks/2], nil
}

// deepDepth is the depth the deep-queue cells run at.
const deepDepth = 200000

func runCells(cfg *runCfg, o *outcome) error {
	dir, err := newScratch(cfg.dir, "cells")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g := newGen(cfg.seed, 1<<20)
	w := cfg.workload
	rpcLoad := w == "rpc_durable" || w == "rpc_nofsync" || w == "rpc_sync_repl"
	backlog := w == "backlog_recover" || w == "backlog_drain"
	cells := []struct {
		crossed bool
		run     func(string, *gen, map[string]float64) error
	}{
		{rpcLoad || backlog, walCells},
		{rpcLoad || backlog, txnLockCells},
		{true, queueCells}, // durable and volatile pairs off one repository
		{backlog, deepCells},
		{rpcLoad, rpcCell},
		{w == "rpc_sync_repl", replicaCell},
		{rpcLoad, localTransceiveCell},
	}
	for i, cell := range cells {
		if !cell.crossed {
			continue
		}
		sub := filepath.Join(dir, fmt.Sprint(i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		if err := cell.run(sub, g, o.metrics); err != nil {
			return fmt.Errorf("layer cell %d: %w", i, err)
		}
	}
	return nil
}

func walCells(dir string, g *gen, m map[string]float64) error {
	// Append + SyncTo, real fsync: the device force one committer pays alone.
	l, err := wal.Open(filepath.Join(dir, "sync"), wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	m["wal.append_sync_us"], err = cellUS(300, func(int) error {
		lsn, err := l.Append(1, g.body())
		if err != nil {
			return err
		}
		return l.SyncTo(lsn)
	})
	l.Close()
	if err != nil {
		return err
	}
	// The same without the device: framing, checksum, staging.
	l, err = wal.Open(filepath.Join(dir, "nosync"), wal.Options{Sync: wal.SyncGroup, NoFsync: true})
	if err != nil {
		return err
	}
	defer l.Close()
	var bytes int
	m["wal.append_nosync_us"], err = cellUS(50000, func(int) error {
		b := g.body()
		bytes += len(b)
		lsn, err := l.Append(1, b)
		if err != nil {
			return err
		}
		return l.SyncTo(lsn)
	})
	if err != nil {
		return err
	}
	// Scanning that log back: the read share of replay.
	t0 := time.Now()
	recs, err := l.ReadFrom(1)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("wal read returned no records")
	}
	m["wal.read_mb_per_s"] = div(float64(bytes)/1e6, time.Since(t0).Seconds())
	return nil
}

func txnLockCells(dir string, g *gen, m map[string]float64) error {
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncGroup, NoFsync: true})
	if err != nil {
		return err
	}
	defer l.Close()
	locks := lock.NewManager()
	tm := txn.NewManager(l, locks)
	m["txn.commit_us"], err = cellUS(50000, func(int) error {
		t := tm.Begin()
		t.LogOp("bench", g.body())
		return t.Commit()
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	m["lock.acquire_release_us"], err = cellUS(200000, func(i int) error {
		if err := locks.Acquire(ctx, 1, "q/req", lock.Exclusive); err != nil {
			return err
		}
		return locks.Release(1, "q/req")
	})
	return err
}

func queueCells(dir string, g *gen, m map[string]float64) error {
	repo, _, err := queue.Open(dir, queue.Options{NoFsync: true, GroupCommit: true})
	if err != nil {
		return err
	}
	defer repo.Crash()
	for _, q := range []queue.QueueConfig{{Name: "d"}, {Name: "t"}, {Name: "v", Volatile: true}, {Name: "r", Volatile: true}} {
		if err := repo.CreateQueue(q); err != nil {
			return err
		}
	}
	ctx := context.Background()
	pair := func(q string, prio int32) func(int) error {
		return func(int) error {
			if _, err := repo.Enqueue(nil, q, queue.Element{Body: g.body(), Priority: prio}, "", nil); err != nil {
				return err
			}
			_, err := repo.Dequeue(ctx, nil, q, "", queue.DequeueOpts{})
			return err
		}
	}
	if m["queue.durable_pair_us"], err = cellUS(20000, pair("d", 0)); err != nil {
		return err
	}
	// A priority keeps a volatile element off the ring: the locked path.
	if m["queue.volatile_pair_us"], err = cellUS(100000, pair("v", 1)); err != nil {
		return err
	}
	if m["queue.ring_pair_us"], err = cellUS(100000, pair("r", 0)); err != nil {
		return err
	}
	// Registrant plus tag, as the clerk's Send does; the dequeue that keeps
	// the queue shallow is not timed.
	if _, _, err := repo.Register("t", "c0", true); err != nil {
		return err
	}
	var tagged time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		el := rrq.NewRequestElement(rid(0, uint64(i)), "c0", "reply.c0", g.body(), nil)
		t0 := time.Now()
		_, err := repo.Enqueue(nil, "t", el, "c0", []byte(rid(0, uint64(i))))
		tagged += time.Since(t0)
		if err != nil {
			return err
		}
		if _, err := repo.Dequeue(ctx, nil, "t", "", queue.DequeueOpts{}); err != nil {
			return err
		}
	}
	m["queue.tagged_enqueue_us"] = float64(tagged) / 1e3 / n
	return nil
}

// deepCells builds one deep durable queue and uses it three ways: dequeue
// at depth, replay of its log after a crash, and a checkpoint.
func deepCells(dir string, g *gen, m map[string]float64) error {
	opts := queue.Options{NoFsync: true, GroupCommit: true}
	repo, _, err := queue.Open(dir, opts)
	if err != nil {
		return err
	}
	defer func() {
		if repo != nil { // nil after a failed reopen
			repo.Crash()
		}
	}()
	if err := repo.CreateQueue(queue.QueueConfig{Name: "deep"}); err != nil {
		return err
	}
	for i := 0; i < deepDepth; {
		t := repo.Begin()
		for k := 0; k < 100; k, i = k+1, i+1 {
			el := rrq.NewRequestElement(rid(0, uint64(i)), "loader", "", g.body(), nil)
			if _, err := repo.Enqueue(t, "deep", el, "", nil); err != nil {
				t.Abort()
				return err
			}
		}
		if err := t.Commit(); err != nil {
			return err
		}
	}
	ctx := context.Background()
	logged := float64(deepDepth) // queue operations in the log: a commit record carries many
	if m["queue.deep_dequeue_us"], err = cellUS(5000, func(int) error {
		logged++
		_, err := repo.Dequeue(ctx, nil, "deep", "", queue.DequeueOpts{})
		return err
	}); err != nil {
		return err
	}
	repo.Crash()
	t0 := time.Now()
	if repo, _, err = queue.Open(dir, opts); err != nil {
		return err
	}
	m["queue.replay_us_per_rec"] = div(float64(time.Since(t0))/1e3, logged)
	runtime.GC() // the crashed repository's memory is garbage now; do not bill the checkpoint for it
	t0 = time.Now()
	if err := repo.Checkpoint(); err != nil {
		return err
	}
	m["storage.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}

func rpcCell(_ string, g *gen, m map[string]float64) error {
	srv := rpc.NewServer()
	srv.Handle("noop", func(p []byte) ([]byte, error) { return nil, nil })
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c := rpc.NewClient(addr, nil)
	defer c.Close()
	ctx := context.Background()
	call := func(int) error {
		_, err := c.Call(ctx, "noop", g.body())
		return err
	}
	if m["rpc.roundtrip_us"], err = cellUS(20000, call); err != nil {
		return err
	}
	// Both ends live in this process, so the count covers client and server.
	const n = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := call(i); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["rpc.allocs_per_call"] = float64(after.Mallocs-before.Mallocs) / n
	return nil
}

// replicaCell times one commit through Sender.Gate into an in-process
// Receiver.Apply, no fsync on either side: the replication protocol's own
// cost, without a network or a device.
func replicaCell(dir string, g *gen, m map[string]float64) error {
	rcv, err := replica.NewReceiver(filepath.Join(dir, "standby"), replica.ReceiverOptions{NoFsync: true})
	if err != nil {
		return err
	}
	primary := filepath.Join(dir, "primary")
	sender, err := replica.NewSender(primary, replica.TransportFunc(func(_ context.Context, req []byte) ([]byte, error) {
		return rcv.Apply(req), nil
	}), replica.SenderOptions{Mode: replica.ModeSync})
	if err != nil {
		return err
	}
	l, err := wal.Open(filepath.Join(primary, "wal"), wal.Options{Sync: wal.SyncGroup, NoFsync: true, Gate: sender.Gate})
	if err != nil {
		return err
	}
	defer l.Close()
	m["replica.gate_apply_us"], err = cellUS(20000, func(int) error {
		lsn, err := l.Append(1, g.body())
		if err != nil {
			return err
		}
		return l.SyncTo(lsn)
	})
	return err
}

// localTransceiveCell is the whole request minus rpc and the device: a
// clerk over LocalConn, one server, NoFsync.
func localTransceiveCell(dir string, g *gen, m map[string]float64) error {
	node, err := rrq.StartNode(rrq.NodeConfig{Dir: dir, NoFsync: true, GroupCommit: true})
	if err != nil {
		return err
	}
	defer node.Crash()
	if err := node.CreateQueue(rrq.QueueConfig{Name: requestQueue}); err != nil {
		return err
	}
	srv, err := rrq.NewServer(rrq.ServerConfig{Repo: node.Repo(), Queue: requestQueue,
		Handler: func(rc *rrq.ReqCtx) ([]byte, error) { return checksumBytes(rc.Request.Body), nil }})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	clerk := rrq.NewClerk(node.LocalConn(), rrq.ClerkConfig{ClientID: "c0", RequestQueue: requestQueue})
	if _, err := clerk.Connect(ctx); err != nil {
		return err
	}
	var seq uint64
	m["core.local_transceive_us"], err = cellUS(10000, func(int) error {
		body := g.body()
		seq++
		rep, err := clerk.Transceive(ctx, rid(0, seq), body, nil, nil)
		if err == nil && !replyMatches(rep.Body, body) {
			err = fmt.Errorf("local transceive: reply does not echo its request")
		}
		return err
	})
	return err
}
