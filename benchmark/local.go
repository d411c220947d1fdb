package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/rrq"
)

// local_volatile: no RPC, no log. Producer/consumer goroutine pairs call
// Repository.Enqueue/Dequeue directly on volatile queues with no
// registrant and no priority — the lock-free ring — so the queue layer
// does all the work and every other layer none.

const (
	// localWindow bounds a pair's elements in flight: the producer is as
	// closed-loop as a producer can be, and the queue stays shallow.
	localWindow = 128
	// localSampleEvery: stamping every element would spend more time
	// reading the clock than in the queue.
	localSampleEvery = 16
	padLen           = 20 // seq(8) stamp(8) checksum(4)
)

type localEnv struct {
	dir  string
	node *rrq.Node
	repo *rrq.Repository

	ctx       context.Context
	cancel    context.CancelFunc
	producers sync.WaitGroup
	pairs     []*localPair
}

type localPair struct {
	queue    string
	inflight atomic.Int64
	produced atomic.Int64
	prodErrs atomic.Int64
	_        [32]byte
	// consumer-only
	next     uint64
	misorder int64
	badSum   int64
}

func setupLocal(cfg *runCfg) (_ *localEnv, err error) {
	dir, err := newScratch(cfg.dir, cfg.workload)
	if err != nil {
		return nil, err
	}
	env := &localEnv{dir: dir}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	env.node, err = rrq.StartNode(rrq.NodeConfig{Dir: filepath.Join(dir, "node"), NoFsync: true})
	if err != nil {
		return nil, fmt.Errorf("start node: %w", err)
	}
	env.repo = env.node.Repo()
	env.ctx, env.cancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.clerks; i++ {
		p := &localPair{queue: fmt.Sprintf("v%d", i)}
		if err = env.node.CreateQueue(rrq.QueueConfig{Name: p.queue, Volatile: true}); err != nil {
			return nil, fmt.Errorf("create queue: %w", err)
		}
		env.pairs = append(env.pairs, p)
	}
	for i, p := range env.pairs {
		env.producers.Add(1)
		go env.produce(p, newGen(cfg.seed, i))
	}
	return env, nil
}

func (e *localEnv) produce(p *localPair, g *gen) {
	defer e.producers.Done()
	var pad [padLen]byte
	for seq := uint64(0); e.ctx.Err() == nil; seq++ {
		for p.inflight.Load() >= localWindow {
			if e.ctx.Err() != nil {
				return
			}
			runtime.Gosched()
		}
		body := g.body()
		var stamp int64
		if seq%localSampleEvery == 0 {
			stamp = time.Now().UnixNano()
		}
		binary.LittleEndian.PutUint64(pad[0:], seq)
		binary.LittleEndian.PutUint64(pad[8:], uint64(stamp))
		binary.LittleEndian.PutUint32(pad[16:], checksum(body))
		p.inflight.Add(1)
		if _, err := e.repo.Enqueue(nil, p.queue, rrq.Element{Body: body, ScratchPad: pad[:]}, "", nil); err != nil {
			p.inflight.Add(-1)
			p.prodErrs.Add(1)
			continue
		}
		p.produced.Add(1)
	}
}

// consume is the pair's timed operation: one dequeue, audited. Latency is
// enqueue-call to dequeue-return of the same element.
func (e *localEnv) consume(w int) (int64, error) {
	p := e.pairs[w]
	var el rrq.Element
	for {
		// Polling, not Wait: a dequeuer that parks on an empty queue seals
		// the ring and moves the pair onto the locked path, which is the
		// path this workload is here to bypass. "Empty" is an answer, not a
		// failure.
		var err error
		if el, err = e.repo.Dequeue(e.ctx, nil, p.queue, "", rrq.DequeueOpts{}); err == nil {
			break
		}
		if !errors.Is(err, rrq.ErrEmpty) {
			return -1, err
		}
		if err := e.ctx.Err(); err != nil {
			return -1, err
		}
		runtime.Gosched()
	}
	p.inflight.Add(-1)
	if len(el.ScratchPad) != padLen {
		p.badSum++
		return -1, nil
	}
	lat := int64(-1)
	if stamp := int64(binary.LittleEndian.Uint64(el.ScratchPad[8:])); stamp != 0 {
		lat = time.Now().UnixNano() - stamp
	}
	seq := binary.LittleEndian.Uint64(el.ScratchPad[0:])
	if binary.LittleEndian.Uint32(el.ScratchPad[16:]) != checksum(el.Body) {
		p.badSum++
	}
	if seq != p.next {
		p.misorder++ // one producer, one consumer, one priority: FIFO means dense and in order
	}
	p.next = seq + 1
	return lat, nil
}

// audit: every element produced was consumed exactly once, in order and
// intact, but for the few in flight when the run stopped.
func (e *localEnv) audit() violations {
	var v violations
	for _, p := range e.pairs {
		v.addN(p.prodErrs.Load(), "%s: %d enqueues failed", p.queue, p.prodErrs.Load())
		v.addN(p.misorder, "%s: %d elements lost, duplicated or out of order", p.queue, p.misorder)
		v.addN(p.badSum, "%s: %d elements corrupted", p.queue, p.badSum)
		if lost := p.produced.Load() - int64(p.next); lost < 0 || lost > localWindow {
			v.add("%s: produced %d, consumed %d", p.queue, p.produced.Load(), p.next)
		}
	}
	return v
}

func (e *localEnv) close() {
	if e.cancel != nil {
		e.cancel()
	}
	e.producers.Wait()
	if e.node != nil {
		e.node.Crash() // nothing durable to checkpoint
	}
	os.RemoveAll(e.dir)
}

func runLocal(cfg *runCfg) (*outcome, error) {
	o := newOutcome(cfg)
	env, setupS, err := timeSetups(cfg.setups,
		func() (*localEnv, error) { return setupLocal(cfg) },
		(*localEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	tr := tracerFor(cfg) // nothing to decorate here; it brackets the program counters
	phases, win := plan(cfg, tr, env.node.Metrics(), nil)
	timed, traced := split(cfg, runPhases(cfg.clerks, phases, env.consume, env.cancel))
	env.producers.Wait()

	e2eMetrics(cfg, o, timed, setupS)
	if cfg.trace {
		if err := tracedMetrics(cfg, o, tr, win, timed, traced); err != nil {
			return nil, err
		}
	}
	o.fail(env.audit())
	return o, nil
}
