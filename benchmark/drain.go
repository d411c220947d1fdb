package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/rrq"
)

// backlog_drain: after load, crash and one recovery, the product's own
// server loops (rrq.NewServer) work the deep queue off: dequeue, handler,
// reply enqueue, commit, one transaction each. The benchmark sees a
// server only through its handler, so one "request" is timed from one
// handler entry to the next on the same server: a full turn of the loop.

type drainEnv struct {
	*backlogEnv
	ctx     context.Context
	cancel  context.CancelFunc
	servers sync.WaitGroup
	turns   []chan int64 // per server: ns per completed turn of its loop
}

func setupDrain(cfg *runCfg, n int, tr *tracer) (*drainEnv, error) {
	b, err := setupBacklog(cfg, tr, tr.walFS())
	if err != nil {
		return nil, err
	}
	if err := b.load(n); err != nil {
		b.close()
		return nil, err
	}
	if _, _, off, err := b.reopen(n); err != nil || off != 0 {
		b.close()
		if err == nil {
			err = fmt.Errorf("depth after reopen is off by %d", off)
		}
		return nil, err
	}
	env := &drainEnv{backlogEnv: b}
	env.ctx, env.cancel = context.WithCancel(context.Background())
	return env, nil
}

// start launches the servers; it is the first thing the timed run does.
func (e *drainEnv) start() error {
	for i := 0; i < e.cfg.clerks; i++ {
		// Buffered so a server never waits for the benchmark: the worker
		// reading the channel only counts, and keeps up with ease.
		turns := make(chan int64, 4096)
		e.turns = append(e.turns, turns)
		var last time.Time
		echo := echoHandler(e.led, e.tr)
		srv, err := rrq.NewServer(rrq.ServerConfig{
			Repo:  e.node.Repo(),
			Queue: requestQueue,
			Name:  fmt.Sprintf("srv%d", i),
			Handler: func(rc *rrq.ReqCtx) ([]byte, error) {
				now := time.Now()
				if !last.IsZero() {
					select {
					case turns <- int64(now.Sub(last)):
					case <-e.ctx.Done():
					}
				}
				last = now
				return echo(rc)
			},
		})
		if err != nil {
			return err
		}
		e.servers.Add(1)
		go func() {
			defer e.servers.Done()
			_ = srv.Serve(e.ctx)
		}()
	}
	return nil
}

var errDrainStopped = errors.New("drain stopped")

func (e *drainEnv) turn(w int) (int64, error) {
	select {
	case d := <-e.turns[w]:
		return d, nil
	case <-e.ctx.Done():
		return -1, errDrainStopped
	}
}

func (e *drainEnv) stop() {
	e.cancel()
	e.servers.Wait()
}

func (e *drainEnv) close() {
	e.stop()
	e.backlogEnv.close()
}

func runDrain(cfg *runCfg) (*outcome, error) {
	o := newOutcome(cfg)
	n := int(drainPerSecond * cfg.seconds)
	if cfg.smoke {
		n *= 25 // without the device the servers drain that much faster
	}
	tr := tracerFor(cfg)
	env, setupS, err := timeSetups(cfg.setups,
		func() (*drainEnv, error) { return setupDrain(cfg, n, tr) },
		(*drainEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	if err := env.start(); err != nil {
		return nil, err
	}
	phases, win := plan(cfg, tr, env.node.Metrics(), env.node.Repo().Log())
	timed, traced := split(cfg, runPhases(cfg.clerks, phases, env.turn, env.stop))
	e2eMetrics(cfg, o, timed, setupS)
	if cfg.trace {
		if err := tracedMetrics(cfg, o, tr, win, timed, traced); err != nil {
			return nil, err
		}
		o.metrics["core.handler_us"] = tr.handlerMeanUS()
		o.metrics["e2e.load_per_s"] = env.loadRate()
	}
	if depth, err := env.node.Repo().Depth(requestQueue); err != nil {
		return nil, err
	} else if depth == 0 {
		o.failed++
		o.notes = append(o.notes, "the backlog ran dry before the window ended: the rate is the backlog's size, not the system's speed")
	}
	v, err := env.auditQueues()
	if err != nil {
		return nil, err
	}
	o.fail(v)
	return o, nil
}
