package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/core/baseline"
	"repro/internal/queue"
	"repro/internal/queue/qservice"
	"repro/internal/rpc"
	"repro/internal/txn"
)

func init() {
	register("e1", runE1)
	register("e6", runE6)
	register("e7", runE7)
}

// countingHandler increments the per-rid execution counter — duplicates
// and losses are read off the "execs" table afterwards.
func countingHandler(repo *queue.Repository) baseline.Handler {
	return func(ctx context.Context, t *txn.Txn, rid string, body []byte) ([]byte, error) {
		v, _, err := repo.KVGet(ctx, t, "execs", rid, true)
		if err != nil {
			return nil, err
		}
		n := 0
		if v != nil {
			n, _ = strconv.Atoi(string(v))
		}
		if err := repo.KVSet(ctx, t, "execs", rid, []byte(strconv.Itoa(n+1))); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	}
}

func execCount(repo *queue.Repository, rid string) int {
	v, ok, err := repo.KVGet(context.Background(), nil, "execs", rid, false)
	if err != nil || !ok {
		return 0
	}
	n, _ := strconv.Atoi(string(v))
	return n
}

// runE1: raw messages lose requests/replies under failures; the queued
// protocol achieves exactly-once (Section 2).
func runE1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Raw messaging vs. queued requests under communication failures",
		Claim: "§2: with ordinary messages an untimely failure loses the request or the reply; " +
			"clients must choose lost work or duplicate execution. The queued protocol is exactly-once.",
		Columns: []string{"arm", "cut-prob", "requests", "lost", "dup-execs", "exactly-once"},
	}
	n := cfg.scale(60, 300)
	for _, p := range []float64{0.02, 0.10} {
		for _, arm := range []string{"raw/no-retry", "raw/blind-retry", "queued", "queued/self-heal"} {
			lost, dups, exact, err := e1Arm(cfg, arm, p, n)
			if err != nil {
				return nil, fmt.Errorf("%s p=%v: %w", arm, p, err)
			}
			t.AddRow(arm, fmtPct(p), strconv.Itoa(n), strconv.Itoa(lost), strconv.Itoa(dups), strconv.Itoa(exact))
		}
	}
	t.Notef("lost = requests with no processed reply; dup-execs = extra committed executions beyond one per request")
	t.Notef("every fault is a delivered-then-severed connection: the worst case of §2 (reply in transit)")
	return t, nil
}

func e1Arm(cfg Config, arm string, cutProb float64, n int) (lost, dups, exact int, err error) {
	dir, err := cfg.tempDir("e1-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	repo, _, err := queue.Open(dir, queue.Options{NoFsync: !cfg.Fsync})
	if err != nil {
		return 0, 0, 0, err
	}
	defer repo.Close()
	net := chaos.NewNetwork(cfg.Seed + int64(cutProb*1000))
	net.SetCutProb(cutProb)

	srv := rpc.NewServer()
	defer srv.Close()
	addr := ""

	processed := make(map[int]bool)
	switch arm {
	case "raw/no-retry", "raw/blind-retry":
		(&baseline.RawServer{Repo: repo, Handler: countingHandler(repo)}).Attach(srv)
		addr, err = srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return 0, 0, 0, err
		}
		retries := 0
		if arm == "raw/blind-retry" {
			retries = 5
		}
		rc := &baseline.RawClient{RC: rpc.NewClient(addr, rpc.Dialer(net.Dialer(nil))), Timeout: 300 * time.Millisecond, Retries: retries}
		defer rc.RC.Close()
		for i := 0; i < n; i++ {
			out, outcome := rc.Do(ridOf(i), nil)
			if outcome != baseline.RawLost && out != nil {
				processed[i] = true
			}
		}
	case "queued":
		if err := repo.CreateQueue(queue.QueueConfig{Name: "req"}); err != nil {
			return 0, 0, 0, err
		}
		handler := countingHandler(repo)
		coreSrv, err := core.NewServer(core.ServerConfig{Repo: repo, Queue: "req", Handler: func(rc *core.ReqCtx) ([]byte, error) {
			return handler(rc.Ctx, rc.Txn, rc.Request.RID, rc.Request.Body)
		}})
		if err != nil {
			return 0, 0, 0, err
		}
		qservice.New(repo, srv)
		addr, err = srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return 0, 0, 0, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go coreSrv.Serve(ctx)

		qc := qservice.NewClient(rpc.NewClient(addr, rpc.Dialer(net.Dialer(nil))))
		defer qc.Close()
		sc := &core.SequentialClient{
			QM:    qc,
			Cfg:   core.ClerkConfig{ClientID: "e1c", RequestQueue: "req", ReceiveWait: 400 * time.Millisecond},
			Total: n,
			ProcessReply: func(i int, rep core.Reply) {
				processed[i] = true
			},
		}
		// Connection faults surface as clerk errors; the client simply
		// reconnects and resynchronizes, forever, until the work is done.
		deadline := time.Now().Add(3 * time.Minute)
		for {
			err := sc.Run(ctx)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return 0, 0, 0, fmt.Errorf("queued arm never completed: %w", err)
			}
		}
	case "queued/self-heal":
		if err := repo.CreateQueue(queue.QueueConfig{Name: "req"}); err != nil {
			return 0, 0, 0, err
		}
		handler := countingHandler(repo)
		coreSrv, err := core.NewServer(core.ServerConfig{Repo: repo, Queue: "req", Handler: func(rc *core.ReqCtx) ([]byte, error) {
			return handler(rc.Ctx, rc.Txn, rc.Request.RID, rc.Request.Body)
		}})
		if err != nil {
			return 0, 0, 0, err
		}
		qservice.New(repo, srv)
		addr, err = srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return 0, 0, 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		go coreSrv.Serve(ctx)

		qc := qservice.NewClient(rpc.NewClient(addr, rpc.Dialer(net.Dialer(nil))))
		defer qc.Close()
		// Identical guarantee, zero recovery code at the call site: the
		// ResilientClerk reconnects and resynchronizes internally.
		rc := core.NewResilientClerk(qc, core.ResilientConfig{
			Clerk:   core.ClerkConfig{ClientID: "e1r", RequestQueue: "req", ReceiveWait: 400 * time.Millisecond},
			Backoff: core.BackoffPolicy{Initial: time.Millisecond, Max: 50 * time.Millisecond},
			Seed:    cfg.Seed + 1,
		})
		for i := 0; i < n; i++ {
			rep, err := rc.Transceive(ctx, ridOf(i), nil, nil, nil)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("self-heal arm rid %d: %w", i, err)
			}
			_ = rep
			processed[i] = true
		}
	default:
		return 0, 0, 0, fmt.Errorf("unknown arm %q", arm)
	}

	for i := 0; i < n; i++ {
		ex := execCount(repo, ridOf(i))
		if ex > 1 {
			dups += ex - 1
		}
		if !processed[i] {
			lost++
		}
		if ex == 1 && processed[i] {
			exact++
		}
	}
	return lost, dups, exact, nil
}

func ridOf(i int) string { return fmt.Sprintf("rid-%06d", i) }

// runE6: the Send optimisations of §5 — one-way-message Send saves a wire
// message per request; Transceive merges Send+Receive into one exchange
// and saves two.
func runE6(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Send variants: RPC Send vs one-way Send vs Transceive",
		Claim: "§5: invoking Enqueue as a one-way message \"saves a message from the QM to the client " +
			"in the common case that the reply arrives within the client's timeout period\".",
		Columns: []string{"variant", "requests", "client-msgs-sent", "client-msgs-recv", "msgs/request", "avg-latency"},
	}
	n := cfg.scale(200, 2000)
	for _, variant := range []string{"rpc-send", "oneway-send", "transceive", "stream-w8"} {
		sent, recv, avgLat, err := e6Arm(cfg, variant, n)
		if err != nil {
			return nil, err
		}
		t.AddRow(variant, strconv.Itoa(n),
			strconv.FormatUint(sent, 10), strconv.FormatUint(recv, 10),
			fmt.Sprintf("%.2f", float64(sent+recv)/float64(n)), fmtMs(avgLat))
	}
	t.Notef("rpc-send per request: enqueue call+ack, dequeue call+reply = 4 msgs; oneway-send saves the enqueue ack (3)")
	t.Notef("transceive is one qm.transceive exchange: the enqueue ack and the dequeue call are both saved (2)")
	t.Notef("stream-w8 is the §11 streaming extension: same messages, but 8 requests pipelined — latency amortized")
	return t, nil
}

func e6Arm(cfg Config, variant string, n int) (sent, recv uint64, avgLatency float64, err error) {
	dir, err := cfg.tempDir("e6-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	repo, _, err := queue.Open(dir, queue.Options{NoFsync: !cfg.Fsync})
	if err != nil {
		return 0, 0, 0, err
	}
	defer repo.Close()
	if err := repo.CreateQueue(queue.QueueConfig{Name: "req"}); err != nil {
		return 0, 0, 0, err
	}
	// Three server instances with ~1ms of work each: enough service time
	// for the streaming window to overlap requests.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for s := 0; s < 3; s++ {
		srv, err := core.NewServer(core.ServerConfig{
			Repo: repo, Queue: "req", Name: fmt.Sprintf("e6srv-%d", s),
			Handler: func(rc *core.ReqCtx) ([]byte, error) {
				time.Sleep(time.Millisecond)
				return []byte("ok"), nil
			}})
		if err != nil {
			return 0, 0, 0, err
		}
		go srv.Serve(ctx)
	}

	rsrv := rpc.NewServer()
	defer rsrv.Close()
	qservice.New(repo, rsrv)
	addr, err := rsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	rcl := rpc.NewClient(addr, nil)
	defer rcl.Close()
	qc := qservice.NewClient(rcl)

	if variant == "stream-w8" {
		sc := core.NewStreamClerk(qc, core.ClerkConfig{ClientID: "e6s", RequestQueue: "req"}, 8)
		if _, err := sc.Connect(ctx); err != nil {
			return 0, 0, 0, err
		}
		base := rcl.Stats()
		start := time.Now()
		sent := 0
		for sent < n || len(sc.Outstanding()) > 0 {
			for len(sc.Outstanding()) < 8 && sent < n {
				if err := sc.Send(ctx, ridOf(sent), nil, nil); err != nil {
					return 0, 0, 0, err
				}
				sent++
			}
			if _, err := sc.Receive(ctx); err != nil {
				return 0, 0, 0, err
			}
		}
		elapsed := time.Since(start)
		st := rcl.Stats()
		return st.MessagesSent - base.MessagesSent, st.MessagesReceived - base.MessagesReceived,
			elapsed.Seconds() / float64(n), nil
	}

	clerk := core.NewClerk(qc, core.ClerkConfig{
		ClientID:     "e6c",
		RequestQueue: "req",
		OneWaySend:   variant == "oneway-send",
	})
	if _, err := clerk.Connect(ctx); err != nil {
		return 0, 0, 0, err
	}
	base := rcl.Stats() // exclude connection setup
	start := time.Now()
	for i := 0; i < n; i++ {
		rid := ridOf(i)
		switch variant {
		case "transceive":
			if _, err := clerk.Transceive(ctx, rid, nil, nil, nil); err != nil {
				return 0, 0, 0, err
			}
		default:
			if err := clerk.Send(ctx, rid, nil, nil); err != nil {
				return 0, 0, 0, err
			}
			if _, err := clerk.Receive(ctx, nil); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	elapsed := time.Since(start)
	st := rcl.Stats()
	return st.MessagesSent - base.MessagesSent, st.MessagesReceived - base.MessagesReceived,
		elapsed.Seconds() / float64(n), nil
}

// runE7: the central guarantees under randomized crash schedules across
// client, server, and node (Section 3 and 5).
func runE7(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Exactly-once request processing under crash storms",
		Claim: "§3: despite failures and recoveries, the system processes each request exactly once " +
			"and the client processes each reply at least once.",
		Columns: []string{"crash-prob", "requests", "crashes", "exec=1", "exec≠1", "replies≥1", "reply-reprocessings"},
	}
	n := cfg.scale(30, 150)
	for _, p := range []float64{0.05, 0.15, 0.30} {
		row, err := e7Arm(cfg, p, n)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Notef("exec≠1 must be 0 in every row; reply-reprocessings > 0 shows at-least-once (not exactly-once) reply delivery")
	return t, nil
}

func e7Arm(cfg Config, p float64, n int) ([]string, error) {
	dir, err := cfg.tempDir("e7-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	repo, _, err := queue.Open(dir, queue.Options{NoFsync: !cfg.Fsync})
	if err != nil {
		return nil, err
	}
	defer repo.Close()
	if err := repo.CreateQueue(queue.QueueConfig{Name: "req", ErrorQueue: "req.err", RetryLimit: 100}); err != nil {
		return nil, err
	}
	if err := repo.CreateQueue(queue.QueueConfig{Name: "req.err"}); err != nil {
		return nil, err
	}
	crash := chaos.NewPoints(cfg.Seed + int64(p*1000))
	for _, pt := range []string{"client.beforeSend", "client.afterSend", "client.afterReceive", "client.afterProcess"} {
		crash.FailWithProb(pt, p, 0)
	}
	for _, pt := range []string{"server.afterDequeue", "server.beforeReply", "server.beforeCommit"} {
		crash.FailWithProb(pt, p/2, 0)
	}
	handler := countingHandler(repo)
	srv, err := core.NewServer(core.ServerConfig{Repo: repo, Queue: "req", Crash: crash, Handler: func(rc *core.ReqCtx) ([]byte, error) {
		return handler(rc.Ctx, rc.Txn, rc.Request.RID, rc.Request.Body)
	}})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Supervisor restarts the server after every injected crash.
	go func() {
		for ctx.Err() == nil {
			if err := srv.Serve(ctx); !errors.Is(err, core.ErrCrashed) {
				return
			}
		}
	}()

	processCount := make(map[int]int)
	sc := &core.SequentialClient{
		QM:    &core.LocalConn{Repo: repo},
		Cfg:   core.ClerkConfig{ClientID: "e7c", RequestQueue: "req", ReceiveWait: 300 * time.Millisecond},
		Total: n,
		ProcessReply: func(i int, rep core.Reply) {
			processCount[i]++
		},
		Crash: crash,
	}
	crashes, err := sc.RunToCompletion(ctx)
	if err != nil {
		return nil, err
	}
	exactOne, notOne, atLeastOnce, reprocess := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		switch execCount(repo, ridOf(i)) {
		case 1:
			exactOne++
		default:
			notOne++
		}
		if processCount[i] >= 1 {
			atLeastOnce++
		}
		if processCount[i] > 1 {
			reprocess += processCount[i] - 1
		}
	}
	return []string{
		fmtPct(p), strconv.Itoa(n), strconv.Itoa(crashes + crash.TotalFired()),
		strconv.Itoa(exactOne), strconv.Itoa(notOne), strconv.Itoa(atLeastOnce), strconv.Itoa(reprocess),
	}, nil
}
