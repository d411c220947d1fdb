package main

import (
	"context"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/wal"
)

// Boundary decorators. Each wraps a seam the product already exposes —
// core.QMConn, rpc.Dialer, NodeConfig.WALFS, ReplicationConfig.Transport,
// and the benchmark's own Handler — and records, in memory, counts and
// spans keyed by rid. They are installed only in the traced run; the
// end-to-end metrics are measured without them. Inside a traced run the
// tracer can be switched off, which reduces every decorator to one atomic
// load, so the same process measures its own tracing overhead.

type tracer struct {
	on atomic.Bool

	// counting net.Conn (rpc)
	connBytes, connWrites, connReads atomic.Int64
	// timing wal.VFS (wal)
	walBytes, walWrites, walSyncNS atomic.Int64
	// timing replica transport (replica)
	replBytes, replNS atomic.Int64

	mu      sync.Mutex
	fsyncs  []int64          // ns per wal fsync
	exch    []int64          // ns per replication exchange
	handler map[string]stamp // rid -> handler entry/exit, written by servers
	spans   []span           // finished request timelines
}

type stamp struct{ start, end time.Time }

// span is one request's timeline: the six cut points, already clamped to
// be monotone, as offsets in ns from the root span's start.
type span struct {
	rid string
	cut [6]int64
}

func newTracer() *tracer { return &tracer{handler: make(map[string]stamp)} }

// tracerFor returns the run's tracer: nil, and no decorator anywhere,
// unless the run is traced.
func tracerFor(cfg *runCfg) *tracer {
	if !cfg.trace {
		return nil
	}
	return newTracer()
}

// timeline clamps the raw cut points of one request — Transceive start,
// QM enqueue called, enqueue acked, handler entered, handler returned,
// Transceive returned — so that they are monotone and end at the
// request's latency. The handler may well enter before the enqueue's
// acknowledgement has travelled back to the clerk; clamping gives that
// overlap to the enqueue and leaves the pickup segment empty rather than
// negative, and the five segments always sum exactly to the latency.
func timeline(t [6]time.Time) [6]int64 {
	var cut [6]int64
	end := int64(t[5].Sub(t[0]))
	for i := 1; i < 6; i++ {
		c := int64(t[i].Sub(t[0]))
		if t[i].IsZero() || c < cut[i-1] {
			c = cut[i-1]
		}
		if c > end {
			c = end
		}
		cut[i] = c
	}
	cut[5] = end
	return cut
}

// tracedClerk wraps one clerk: the root span around Transceive and a
// QMConn decorator between the clerk and its queue-manager connection.
type tracedClerk struct {
	core.QMConn
	tr       *tracer
	reqQueue string
	enqStart time.Time
	enqEnd   time.Time
}

func (c *tracedClerk) Enqueue(ctx context.Context, qname string, e queue.Element, registrant string, tag []byte) (queue.EID, error) {
	if !c.tr.on.Load() || qname != c.reqQueue {
		return c.QMConn.Enqueue(ctx, qname, e, registrant, tag)
	}
	c.enqStart = time.Now()
	eid, err := c.QMConn.Enqueue(ctx, qname, e, registrant, tag)
	c.enqEnd = time.Now()
	return eid, err
}

// transceive is the root span: it runs one request through clerk and
// files the finished timeline.
func (c *tracedClerk) transceive(ctx context.Context, clerk *core.Clerk, ridStr string, body []byte) (core.Reply, error) {
	if !c.tr.on.Load() {
		return clerk.Transceive(ctx, ridStr, body, nil, nil)
	}
	c.enqStart, c.enqEnd = time.Time{}, time.Time{}
	t0 := time.Now()
	rep, err := clerk.Transceive(ctx, ridStr, body, nil, nil)
	t5 := time.Now()
	c.tr.mu.Lock()
	h := c.tr.handler[ridStr]
	delete(c.tr.handler, ridStr)
	if err == nil {
		c.tr.spans = append(c.tr.spans, span{ridStr, timeline([6]time.Time{t0, c.enqStart, c.enqEnd, h.start, h.end, t5})})
	}
	c.tr.mu.Unlock()
	return rep, err
}

// handlerSpan records one handler execution's entry and exit.
func (t *tracer) handlerSpan(ridStr string, start, end time.Time) {
	t.mu.Lock()
	t.handler[ridStr] = stamp{start, end}
	t.mu.Unlock()
}

// handlerMeanUS averages the handler executions no clerk span claimed (the
// drain has servers but no clerks).
func (t *tracer) handlerMeanUS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, h := range t.handler {
		sum += h.end.Sub(h.start)
	}
	return div(float64(sum)/1e3, float64(len(t.handler)))
}

// countingConn counts what crosses one TCP connection.
type countingConn struct {
	net.Conn
	tr *tracer
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.on.Load() {
		c.tr.connReads.Add(1)
		c.tr.connBytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.on.Load() {
		c.tr.connWrites.Add(1)
		c.tr.connBytes.Add(int64(n))
	}
	return n, err
}

func (t *tracer) dialer() rpc.Dialer {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{c, t}, nil
	}
}

// osFS is the real filesystem as a wal.VFS (the product's own is not
// exported): what timingFS wraps when no fault layer is interposed.
type osFS struct{}

func (osFS) OpenAppend(path string) (wal.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// walFS is the NodeConfig.WALFS of a run: the timed real filesystem when
// traced, nil (the product's own) when not.
func (t *tracer) walFS() wal.VFS {
	if t == nil {
		return nil
	}
	return timingFS{osFS{}, t}
}

// timingFS times the log's device calls.
type timingFS struct {
	inner wal.VFS
	tr    *tracer
}

func (fs timingFS) OpenAppend(path string) (wal.File, error) {
	f, err := fs.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return timingFile{f, fs.tr}, nil
}

type timingFile struct {
	wal.File
	tr *tracer
}

func (f timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.tr.on.Load() {
		f.tr.walWrites.Add(1)
		f.tr.walBytes.Add(int64(n))
	}
	return n, err
}

func (f timingFile) Sync() error {
	if !f.tr.on.Load() {
		return f.File.Sync()
	}
	t0 := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(t0))
	f.tr.walSyncNS.Add(d)
	f.tr.mu.Lock()
	f.tr.fsyncs = append(f.tr.fsyncs, d)
	f.tr.mu.Unlock()
	return err
}

// timingTransport times the primary's ship exchanges with the standby.
type timingTransport struct {
	inner replica.Transport
	tr    *tracer
}

func (t timingTransport) Exchange(ctx context.Context, req []byte) ([]byte, error) {
	if !t.tr.on.Load() {
		return t.inner.Exchange(ctx, req)
	}
	t0 := time.Now()
	resp, err := t.inner.Exchange(ctx, req)
	d := int64(time.Since(t0))
	t.tr.replNS.Add(d)
	t.tr.replBytes.Add(int64(len(req) + len(resp)))
	t.tr.mu.Lock()
	t.tr.exch = append(t.tr.exch, d)
	t.tr.mu.Unlock()
	return resp, err
}

// segmentMeans averages the five timeline segments and the latency over
// all recorded spans, in µs.
func (t *tracer) segmentMeans() (seg [5]float64, lat float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return
	}
	var sum [5]int64
	var total int64
	for _, s := range t.spans {
		for i := 0; i < 5; i++ {
			sum[i] += s.cut[i+1] - s.cut[i]
		}
		total += s.cut[5]
	}
	n := float64(len(t.spans))
	for i := range seg {
		seg[i] = float64(sum[i]) / n / 1e3
	}
	return seg, float64(total) / n / 1e3
}
