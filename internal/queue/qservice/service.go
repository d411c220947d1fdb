// Package qservice exposes a queue.Repository over the rpc substrate — the
// system model's wiring (fig. 4): the clerk in the client's process invokes
// queue-manager operations by remote procedure call.
//
// Only the non-transactional (auto-commit) surface is remote, which is
// exactly the paper's architecture: "the client accesses queues outside of
// a transaction, while the server accesses queues within transactions"
// (Section 2). Servers are co-located with their repository and use the
// in-process transactional API.
package qservice

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/enc"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// Wire method names.
const (
	MethodRegister    = "qm.register"
	MethodDeregister  = "qm.deregister"
	MethodEnqueue     = "qm.enqueue"
	MethodEnqueue1W   = "qm.enqueue1w" // one-way: no response (Section 5)
	MethodDequeue     = "qm.dequeue"
	MethodTransceive  = "qm.transceive" // enqueue then dequeue, one exchange (Section 5)
	MethodReadLast    = "qm.readlast"
	MethodRead        = "qm.read"
	MethodKill        = "qm.kill"
	MethodCreateQueue = "qm.createqueue"
	MethodDepth       = "qm.depth"
	MethodQueues      = "qm.queues"
	MethodStats       = "qm.stats"
	MethodDequeueSet  = "qm.dequeueset"
	MethodMetrics     = "qm.metrics"
	MethodTrace       = "qm.trace"  // one span tree as JSON
	MethodTraces      = "qm.traces" // slowest-N summaries as JSON
	MethodHealth      = "qm.health" // node health document as JSON
	MethodLogs        = "qm.logs"   // recent structured log events as JSON
	MethodFlight      = "qm.flight" // flight-recorder document as JSON
	MethodRepl        = "qm.repl"   // replication status document as JSON
)

// Status codes carried in every response payload.
const (
	stOK uint8 = iota
	stEmpty
	stNoQueue
	stNotFound
	stNotRegistered
	stStopped
	stFull
	stOther
	// stNotPrimary rejects an operation on a fenced ex-primary: a newer
	// epoch exists, so this node must not ack. Decoded back to
	// replica.ErrFenced, which ResilientClerk treats as retryable — the
	// fig. 2 recovery loop re-resolves the primary and resynchronizes
	// against the promoted standby.
	stNotPrimary
)

func encodeErr(err error) (uint8, string) {
	switch {
	case err == nil:
		return stOK, ""
	case errors.Is(err, queue.ErrEmpty):
		return stEmpty, err.Error()
	case errors.Is(err, queue.ErrNoQueue):
		return stNoQueue, err.Error()
	case errors.Is(err, queue.ErrNotFound):
		return stNotFound, err.Error()
	case errors.Is(err, queue.ErrNotRegistered):
		return stNotRegistered, err.Error()
	case errors.Is(err, queue.ErrStopped):
		return stStopped, err.Error()
	case errors.Is(err, queue.ErrFull):
		return stFull, err.Error()
	case errors.Is(err, replica.ErrFenced):
		return stNotPrimary, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		// A timed-out waiting dequeue is an empty queue to the client.
		return stEmpty, "wait timeout"
	default:
		return stOther, err.Error()
	}
}

func decodeErr(code uint8, msg string) error {
	switch code {
	case stOK:
		return nil
	case stEmpty:
		return fmt.Errorf("%w: %s", queue.ErrEmpty, msg)
	case stNoQueue:
		return fmt.Errorf("%w: %s", queue.ErrNoQueue, msg)
	case stNotFound:
		return fmt.Errorf("%w: %s", queue.ErrNotFound, msg)
	case stNotRegistered:
		return fmt.Errorf("%w: %s", queue.ErrNotRegistered, msg)
	case stStopped:
		return fmt.Errorf("%w: %s", queue.ErrStopped, msg)
	case stFull:
		return fmt.Errorf("%w: %s", queue.ErrFull, msg)
	case stNotPrimary:
		return fmt.Errorf("%w: %s", replica.ErrFenced, msg)
	default:
		return errors.New(msg)
	}
}

// respond builds a status-prefixed response.
func respond(err error, body func(b *enc.Buffer)) []byte {
	b := enc.NewBuffer(64)
	if putStatus(b, err) && body != nil {
		body(b)
	}
	return b.Bytes()
}

// putStatus appends err's status prefix — the code, and the message when
// it is not stOK — and reports whether a body should follow.
func putStatus(b *enc.Buffer, err error) bool {
	code, msg := encodeErr(err)
	b.Uint8(code)
	if code != stOK {
		b.String(msg)
		return false
	}
	return true
}

// readStatus peels a status prefix written by putStatus.
func readStatus(r *enc.Reader) error {
	code := r.Uint8()
	if err := r.Err(); err != nil {
		return err
	}
	if code != stOK {
		return decodeErr(code, r.String())
	}
	return nil
}

// wireElement encodes an element for the wire (public fields only; the
// fifo sequence is repository-internal and regenerated on enqueue). The
// trace context rides as a self-delimiting tail: old peers that stop
// reading after AbortCode still parse the prefix, and their elements
// decode here as untraced.
func wireElement(b *enc.Buffer, e *queue.Element) {
	b.Uvarint(uint64(e.EID))
	b.String(e.Queue)
	b.Varint(int64(e.Priority))
	b.BytesField(e.Body)
	b.StringMap(e.Headers)
	b.BytesField(e.ScratchPad)
	b.String(e.ReplyTo)
	b.Varint(int64(e.AbortCount))
	b.String(e.AbortCode)
	b.TraceTail(e.Trace, uint64(e.Span))
}

// readWireElement decodes an element into memory the element owns; the
// names every element of a connection repeats — its queue, its header
// keys — are shared through in (nil for none).
func readWireElement(r *enc.Reader, in *enc.Interner) queue.Element {
	var e queue.Element
	e.EID = queue.EID(r.Uvarint())
	e.Queue = in.Intern(r.View())
	e.Priority = int32(r.Varint())
	e.Body = r.BytesField()
	e.Headers = r.StringMapKeys(in)
	e.ScratchPad = r.BytesField()
	e.ReplyTo = in.Intern(r.View())
	e.AbortCount = int32(r.Varint())
	e.AbortCode = r.String()
	id, span := r.TraceTail()
	e.Trace = trace.ID(id)
	e.Span = trace.SpanID(span)
	return e
}

// AuxProviders supply the node-level observability documents (health,
// recent logs, flight-recorder state) that live above the repository —
// the node that owns the service wires them in with SetAux. Each returns
// a complete JSON document. Nil providers answer "not available".
type AuxProviders struct {
	Health func() ([]byte, error)
	Logs   func(max int) ([]byte, error)
	Flight func() ([]byte, error)
	// Repl returns the node's replication status document (qm.repl —
	// `qmctl repl` reads it). Nil on unreplicated nodes.
	Repl func() ([]byte, error)
}

// Service serves one repository.
type Service struct {
	repo *queue.Repository
	srv  *rpc.Server
	aux  atomic.Pointer[AuxProviders]
	// names shares the strings every request repeats: queue names,
	// registrants, header keys.
	names enc.Interner
}

// SetAux installs the node-level providers behind qm.health, qm.logs and
// qm.flight. Safe to call after serving has started.
func (s *Service) SetAux(p AuxProviders) { s.aux.Store(&p) }

// New registers the repository's methods on srv and returns the service.
// The hot-path methods are context-aware (HandleCtx): a traced call gets
// an "rpc.<method>" server span and its element operations parent under
// it, and a call carrying a propagated deadline is abandoned — with any
// waiting dequeue left uncommitted — the moment the caller's time budget
// expires.
func New(repo *queue.Repository, srv *rpc.Server) *Service {
	s := &Service{repo: repo, srv: srv}
	srv.SetTracer(repo.Tracer())
	srv.Handle(MethodRegister, s.handleRegister)
	srv.Handle(MethodDeregister, s.handleDeregister)
	srv.HandleCtx(MethodEnqueue, s.handleEnqueue)
	srv.HandleCtx(MethodEnqueue1W, func(ctx context.Context, p []byte) ([]byte, error) {
		s.handleEnqueue(ctx, p) // same work; the response is discarded
		return nil, nil
	})
	srv.HandleCtx(MethodDequeue, s.handleDequeue)
	srv.HandleCtx(MethodTransceive, s.handleTransceive)
	srv.Handle(MethodReadLast, s.handleReadLast)
	srv.Handle(MethodRead, s.handleRead)
	srv.Handle(MethodKill, s.handleKill)
	srv.Handle(MethodCreateQueue, s.handleCreateQueue)
	srv.Handle(MethodDepth, s.handleDepth)
	srv.Handle(MethodQueues, s.handleQueues)
	srv.Handle(MethodStats, s.handleStats)
	srv.HandleCtx(MethodDequeueSet, s.handleDequeueSet)
	srv.Handle(MethodMetrics, s.handleMetrics)
	srv.Handle(MethodTrace, s.handleTrace)
	srv.Handle(MethodTraces, s.handleTraces)
	srv.Handle(MethodHealth, s.handleHealth)
	srv.Handle(MethodLogs, s.handleLogs)
	srv.Handle(MethodFlight, s.handleFlight)
	srv.Handle(MethodRepl, s.handleRepl)
	return s
}

var errAuxUnavailable = fmt.Errorf("%w: not enabled on this node", queue.ErrNotFound)

// handleHealth returns the node's health document as JSON (qm.health).
func (s *Service) handleHealth(p []byte) ([]byte, error) {
	aux := s.aux.Load()
	if aux == nil || aux.Health == nil {
		return respond(errAuxUnavailable, nil), nil
	}
	j, err := aux.Health()
	return respond(err, func(b *enc.Buffer) { b.BytesField(j) }), nil
}

// handleLogs returns up to max recent log events as a JSON array (qm.logs).
func (s *Service) handleLogs(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	max := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	aux := s.aux.Load()
	if aux == nil || aux.Logs == nil {
		return respond(errAuxUnavailable, nil), nil
	}
	j, err := aux.Logs(max)
	return respond(err, func(b *enc.Buffer) { b.BytesField(j) }), nil
}

// handleFlight returns the live flight-recorder document (qm.flight).
func (s *Service) handleFlight(p []byte) ([]byte, error) {
	aux := s.aux.Load()
	if aux == nil || aux.Flight == nil {
		return respond(errAuxUnavailable, nil), nil
	}
	j, err := aux.Flight()
	return respond(err, func(b *enc.Buffer) { b.BytesField(j) }), nil
}

// handleRepl returns the node's replication status document (qm.repl).
func (s *Service) handleRepl(p []byte) ([]byte, error) {
	aux := s.aux.Load()
	if aux == nil || aux.Repl == nil {
		return respond(errAuxUnavailable, nil), nil
	}
	j, err := aux.Repl()
	return respond(err, func(b *enc.Buffer) { b.BytesField(j) }), nil
}

// RespondJSON builds a response carrying one JSON document in the shape
// the JSON-returning methods (qm.health, qm.repl, ...) use — exported so
// a standby daemon, which has no Service until promotion, can still
// answer qm.repl with its own status.
func RespondJSON(j []byte, err error) []byte {
	return respond(err, func(b *enc.Buffer) { b.BytesField(j) })
}

// handleTrace returns one assembled span tree as JSON (qm.trace).
func (s *Service) handleTrace(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	idStr := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	id, err := trace.ParseID(idStr)
	if err != nil {
		return respond(fmt.Errorf("%w: %v", queue.ErrNotFound, err), nil), nil
	}
	nodes := s.repo.Tracer().Trace(id)
	if len(nodes) == 0 {
		return respond(fmt.Errorf("%w: trace %s", queue.ErrNotFound, idStr), nil), nil
	}
	j, err := json.Marshal(nodes)
	return respond(err, func(b *enc.Buffer) { b.BytesField(j) }), nil
}

// handleTraces returns the slowest-N retained trace summaries as JSON
// (qm.traces).
func (s *Service) handleTraces(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	sums := s.repo.Tracer().Slowest(n)
	if sums == nil {
		sums = []trace.Summary{}
	}
	j, err := json.Marshal(sums)
	return respond(err, func(b *enc.Buffer) { b.BytesField(j) }), nil
}

// handleMetrics returns the repository's full metrics registry as JSON —
// the same document the admin HTTP endpoint serves, so qmctl can read it
// over the RPC port without a second listener.
func (s *Service) handleMetrics(p []byte) ([]byte, error) {
	j, err := json.Marshal(s.repo.Metrics())
	return respond(err, func(b *enc.Buffer) { b.BytesField(j) }), nil
}

func (s *Service) handleQueues(p []byte) ([]byte, error) {
	names := s.repo.Queues()
	return respond(nil, func(b *enc.Buffer) { b.StringSlice(names) }), nil
}

func (s *Service) handleStats(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	qname := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st, err := s.repo.Stats(qname)
	return respond(err, func(b *enc.Buffer) {
		b.Uvarint(st.Enqueues)
		b.Uvarint(st.Dequeues)
		b.Uvarint(st.AbortReturns)
		b.Uvarint(st.ErrorDiversions)
		b.Uvarint(st.Kills)
		b.Varint(int64(st.Depth))
		b.Varint(int64(st.InFlight))
		b.Varint(int64(st.MaxDepth))
	}), nil
}

func (s *Service) handleDequeueSet(ctx context.Context, p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	qnames := r.StringSlice()
	registrant := r.String()
	tag := r.BytesField()
	waitMillis := r.Uvarint()
	match := r.StringMap()
	if err := r.Err(); err != nil {
		return nil, err
	}
	opts := queue.DequeueOpts{Tag: tag, HeaderMatch: match}
	// ctx carries the caller's propagated deadline: a waiting dequeue is
	// cancelled — uncommitted, the element left for redelivery — when the
	// client's budget runs out, even before the wait parameter elapses.
	if waitMillis > 0 {
		opts.Wait = true
		var cancel context.CancelFunc
		ctx, cancel = boundWait(ctx, time.Duration(waitMillis)*time.Millisecond)
		defer cancel()
	}
	e, err := s.repo.DequeueSet(ctx, nil, qnames, registrant, opts)
	return respond(err, func(b *enc.Buffer) { wireElement(b, &e) }), nil
}

func (s *Service) handleRegister(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	qname := r.String()
	registrant := r.String()
	stable := r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	_, ri, err := s.repo.Register(qname, registrant, stable)
	return respond(err, func(b *enc.Buffer) {
		b.Bool(ri.HasLast)
		b.Uint8(uint8(ri.LastOp))
		b.Uvarint(uint64(ri.LastEID))
		b.BytesField(ri.LastTag)
	}), nil
}

func (s *Service) handleDeregister(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	qname := r.String()
	registrant := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	h := s.handleFor(qname, registrant)
	return respond(s.repo.Deregister(h), nil), nil
}

// handleFor rebuilds a Handle without re-registering (handles are just
// (queue, registrant) bindings).
func (s *Service) handleFor(qname, registrant string) *queue.Handle {
	return s.repo.HandleFor(qname, registrant)
}

// enqueueArgs is the request of qm.enqueue, and the first half of
// qm.transceive's (encodeEnqueue writes it).
type enqueueArgs struct {
	qname      string
	e          queue.Element
	registrant string
	tag        []byte
}

func (a *enqueueArgs) read(r *enc.Reader, in *enc.Interner) {
	a.qname = in.Intern(r.View())
	a.e = readWireElement(r, in)
	a.registrant = in.Intern(r.View())
	a.tag = r.BytesField()
}

// dequeueArgs is the request of qm.dequeue, and the second half of
// qm.transceive's (encodeDequeue writes it).
type dequeueArgs struct {
	qname        string
	registrant   string
	tag          []byte
	waitMillis   uint64
	match        map[string]string
	preferHeader string
}

func (a *dequeueArgs) read(r *enc.Reader, in *enc.Interner) {
	a.qname = in.Intern(r.View())
	a.registrant = in.Intern(r.View())
	a.tag = r.BytesField()
	a.waitMillis = r.Uvarint()
	a.match = r.StringMap()
	a.preferHeader = r.String()
}

// enqueue is the one auto-commit enqueue every remote path runs.
func (s *Service) enqueue(ctx context.Context, a *enqueueArgs) (queue.EID, error) {
	// Parent the repository's enqueue span under the server's rpc span
	// (ctx carries that span's ref when the call was traced).
	ref := trace.From(ctx)
	if ref.Valid() {
		if a.e.Trace.IsZero() {
			a.e.Trace = ref.Trace
		}
		if a.e.Trace == ref.Trace {
			a.e.Span = ref.Span
		}
	}
	// a.e was decoded into memory of its own: the repository keeps it.
	return s.repo.EnqueueOwned(nil, a.qname, a.e, a.registrant, a.tag)
}

// dequeue is the one auto-commit dequeue every remote path runs.
func (s *Service) dequeue(ctx context.Context, a *dequeueArgs) (queue.Element, error) {
	opts := queue.DequeueOpts{Tag: a.tag, HeaderMatch: a.match, PreferHeaderDesc: a.preferHeader}
	// ctx carries the caller's propagated deadline: a waiting dequeue is
	// cancelled — uncommitted, the element left for redelivery — when the
	// client's budget runs out, even before the wait parameter elapses.
	if a.waitMillis > 0 {
		opts.Wait = true
		var cancel context.CancelFunc
		ctx, cancel = boundWait(ctx, time.Duration(a.waitMillis)*time.Millisecond)
		defer cancel()
	}
	return s.repo.Dequeue(ctx, nil, a.qname, a.registrant, opts)
}

// boundWait bounds ctx by wait — unless ctx's own deadline already falls
// inside it, the usual case for a call that carries its caller's budget:
// then ctx is the one deadline context this side of the call needs.
func boundWait(ctx context.Context, wait time.Duration) (context.Context, context.CancelFunc) {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= wait {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, wait)
}

func (s *Service) handleEnqueue(ctx context.Context, p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	var a enqueueArgs
	a.read(r, &s.names)
	if err := r.Err(); err != nil {
		return nil, err
	}
	eid, err := s.enqueue(ctx, &a)
	return respond(err, func(b *enc.Buffer) { b.Uvarint(uint64(eid)) }), nil
}

func (s *Service) handleDequeue(ctx context.Context, p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	var a dequeueArgs
	a.read(r, &s.names)
	if err := r.Err(); err != nil {
		return nil, err
	}
	e, err := s.dequeue(ctx, &a)
	return respond(err, func(b *enc.Buffer) { wireElement(b, &e) }), nil
}

// handleTransceive serves qm.transceive: handleEnqueue's body, then
// handleDequeue's, in one exchange — the same two auto-commit transactions
// with the same registration tags, so what the queue manager holds after
// any prefix of it is a state Send;Receive also reaches (DESIGN.md §6).
// Request and response are the two methods' own, concatenated: the
// response's dequeue stage is present only if the request was stored.
func (s *Service) handleTransceive(ctx context.Context, p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	var enq enqueueArgs
	var deq dequeueArgs
	enq.read(r, &s.names)
	deq.read(r, &s.names)
	if err := r.Err(); err != nil {
		return nil, err
	}
	eid, err := s.enqueue(ctx, &enq)
	b := enc.NewBuffer(64)
	if !putStatus(b, err) {
		return b.Bytes(), nil
	}
	b.Uvarint(uint64(eid))
	e, err := s.dequeue(ctx, &deq)
	if putStatus(b, err) {
		wireElement(b, &e)
	}
	return b.Bytes(), nil
}

func (s *Service) handleReadLast(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	qname := r.String()
	registrant := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	e, err := s.handleFor(qname, registrant).ReadLast()
	return respond(err, func(b *enc.Buffer) { wireElement(b, &e) }), nil
}

func (s *Service) handleRead(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	eid := queue.EID(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	e, err := s.repo.Read(eid)
	return respond(err, func(b *enc.Buffer) { wireElement(b, &e) }), nil
}

func (s *Service) handleKill(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	eid := queue.EID(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	killed, err := s.repo.KillElement(eid)
	return respond(err, func(b *enc.Buffer) { b.Bool(killed) }), nil
}

func (s *Service) handleCreateQueue(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	var cfg queue.QueueConfig
	cfg.Name = r.String()
	cfg.ErrorQueue = r.String()
	cfg.RetryLimit = int32(r.Varint())
	cfg.Volatile = r.Bool()
	cfg.StrictFIFO = r.Bool()
	cfg.RedirectTo = r.String()
	cfg.AlertThreshold = int32(r.Varint())
	cfg.MaxDepth = int32(r.Varint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	err := s.repo.CreateQueue(cfg)
	if errors.Is(err, queue.ErrExists) {
		err = nil // idempotent remote creation
	}
	return respond(err, nil), nil
}

// handleDepth serves qm.depth. Depth is a lock-free gauge read on the
// repository side (it serializes against nothing but the queue lookup),
// so remote pollers — load balancers watching backlog, qmctl watch loops
// — can call it at high rate without perturbing enqueuers or dequeuers.
func (s *Service) handleDepth(p []byte) ([]byte, error) {
	r := enc.NewReader(p)
	qname := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	d, err := s.repo.Depth(qname)
	return respond(err, func(b *enc.Buffer) { b.Uvarint(uint64(d)) }), nil
}
