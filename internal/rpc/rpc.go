// Package rpc is the interprocess communication substrate: a small framed
// request/response protocol over net.Conn, in the spirit of the remote
// procedure calls the paper assumes between clerk and queue manager
// (Section 5, citing Birrell & Nelson).
//
// It supports plain request/response calls and one-way messages — the
// paper's Send optimisation: "it can invoke Enqueue using a one-way
// message, instead of a remote procedure call. ... This saves a message
// from the QM to the client" (Section 5). Message counters expose exactly
// that saving to the experiment harness.
//
// Wire format (all little-endian):
//
//	length   uint32  frame length excluding this field
//	kind     uint8   1=request 2=response 3=one-way 4=error-response
//	                 5=busy (admission-control shed);
//	                 high bit (0x80) set when trace context follows,
//	                 bit 0x40 set when a deadline budget follows
//	id       uint64  request id (0 for one-way)
//	method   uint16-prefixed string (requests and one-ways)
//	trace    16-byte trace id + 8-byte span id, present only when the
//	         kind's 0x80 bit is set — old peers' frames decode unchanged
//	deadline uint64  remaining time budget in nanoseconds, present only
//	         when the kind's 0x40 bit is set; a relative budget (not an
//	         absolute timestamp) so peers need no clock agreement
//	payload  remaining bytes
//
// The chaos layer injects failures by wrapping net.Conn; this package is
// deliberately transport-agnostic.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/log"
	"repro/internal/obs/trace"
)

const (
	kindRequest uint8 = 1
	kindResp    uint8 = 2
	kindOneWay  uint8 = 3
	kindError   uint8 = 4
	kindBusy    uint8 = 5

	// kindTraceFlag marks a frame carrying trace context (16-byte trace id
	// + 8-byte span id between the method string and the payload). The base
	// kind is kind &^ kindFlags, so peers that predate tracing never set it
	// and their frames decode exactly as before.
	kindTraceFlag uint8 = 0x80

	// kindDeadlineFlag marks a frame carrying the caller's remaining time
	// budget (8 bytes, after any trace context). Same compatibility trick
	// as the trace flag: frames without the bit are byte-identical to the
	// old format, and old peers never set it.
	kindDeadlineFlag uint8 = 0x40

	// kindFlags are the metadata bits the codec owns within the kind byte.
	kindFlags = kindTraceFlag | kindDeadlineFlag

	// traceCtxLen is the on-wire size of a trace context.
	traceCtxLen = 16 + 8

	// deadlineLen is the on-wire size of a deadline budget.
	deadlineLen = 8

	// maxFrame bounds a frame; larger frames indicate corruption or abuse.
	maxFrame = 16 << 20
)

// Errors returned by clients and servers.
var (
	// ErrConnClosed reports that the connection died before a response.
	ErrConnClosed = errors.New("rpc: connection closed")
	// ErrTooLarge reports an over-limit frame.
	ErrTooLarge = errors.New("rpc: frame too large")
	// ErrNoMethod is wired back to callers of unregistered methods.
	ErrNoMethod = errors.New("rpc: no such method")
)

// Handler processes one request payload and returns a response payload.
// Handlers run on their own goroutine, so a handler may block (e.g. a
// waiting dequeue) without stalling the connection.
type Handler func(payload []byte) ([]byte, error)

// RefHandler is a Handler that also receives the caller's trace context
// (zero Ref when the request was untraced). Registered via HandleRef; the
// server wraps the handler invocation in an "rpc.<method>" span and hands
// the handler that span's ref so downstream work parents under it.
type RefHandler func(ref trace.Ref, payload []byte) ([]byte, error)

// CtxHandler is the full-context handler shape: ctx carries the caller's
// propagated deadline (when the request frame had one) and trace ref (via
// trace.From), and is cancelled when the client's time budget expires or
// its connection dies — so a blocking handler (a waiting dequeue) stops
// working for a caller that has given up or gone. Registered via
// HandleCtx; takes precedence over RefHandler and Handler under the same
// name.
type CtxHandler func(ctx context.Context, payload []byte) ([]byte, error)

// frame is one decoded wire frame. Hot-path decodes (frameReader) leave
// method empty and point methodB into body's backing; the slow, test-facing
// readFrame materializes method as a string and leaves body nil.
type frame struct {
	kind      uint8
	id        uint64
	method    string
	methodB   []byte // aliases body; valid until release
	ref       trace.Ref
	budget    time.Duration // remaining caller budget; valid when hasBudget
	hasBudget bool
	payload   []byte
	body      *buf // pooled backing for methodB/payload; nil when unpooled
}

// methodStr materializes the method name as a string, whichever way the
// frame was decoded. Cold paths only (errors, span names).
func (f *frame) methodStr() string {
	if f.methodB != nil {
		return string(f.methodB)
	}
	return f.method
}

// encodeFrame serializes f into a pooled buffer (length prefix included)
// and reports whether the buffer was pool-reused. The caller owns the
// returned buffer and must release it or hand it to a connWriter.
func encodeFrame(f *frame) (p *buf, reused bool, err error) {
	method := f.methodB
	if method == nil && f.method != "" {
		// Zero-copy view of the string; written, never mutated or kept.
		method = []byte(f.method)
	}
	methodLen := len(method)
	if methodLen > 0xffff {
		return nil, false, fmt.Errorf("rpc: method name too long")
	}
	traced := f.ref.Valid()
	n := 1 + 8 + 2 + methodLen + len(f.payload)
	if traced {
		n += traceCtxLen
	}
	if f.hasBudget {
		n += deadlineLen
	}
	if n > maxFrame {
		return nil, false, ErrTooLarge
	}
	p, reused = getBuf(4 + n)
	buf := p.b
	binary.LittleEndian.PutUint32(buf, uint32(n))
	kind := f.kind
	if traced {
		kind |= kindTraceFlag
	}
	if f.hasBudget {
		kind |= kindDeadlineFlag
	}
	buf[4] = kind
	binary.LittleEndian.PutUint64(buf[5:], f.id)
	binary.LittleEndian.PutUint16(buf[13:], uint16(methodLen))
	copy(buf[15:], method)
	off := 15 + methodLen
	if traced {
		copy(buf[off:], f.ref.Trace[:])
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(f.ref.Span))
		off += traceCtxLen
	}
	if f.hasBudget {
		budget := f.budget
		if budget < 0 {
			budget = 0
		}
		binary.LittleEndian.PutUint64(buf[off:], uint64(budget))
		off += deadlineLen
	}
	copy(buf[off:], f.payload)
	return p, reused, nil
}

func writeFrame(w io.Writer, f *frame) error {
	p, _, err := encodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(p.b)
	p.release()
	return err
}

// parseFrame decodes body into f. methodB and payload alias body.
func parseFrame(f *frame, body []byte) error {
	traced := body[0]&kindTraceFlag != 0
	hasBudget := body[0]&kindDeadlineFlag != 0
	f.kind = body[0] &^ kindFlags
	f.id = binary.LittleEndian.Uint64(body[1:])
	methodLen := int(binary.LittleEndian.Uint16(body[9:]))
	off := 11 + methodLen
	if off > len(body) {
		return fmt.Errorf("rpc: bad method length")
	}
	f.methodB = body[11:off]
	if traced {
		if off+traceCtxLen > len(body) {
			return fmt.Errorf("rpc: truncated trace context")
		}
		copy(f.ref.Trace[:], body[off:])
		f.ref.Span = trace.SpanID(binary.LittleEndian.Uint64(body[off+16:]))
		off += traceCtxLen
	}
	if hasBudget {
		if off+deadlineLen > len(body) {
			return fmt.Errorf("rpc: truncated deadline budget")
		}
		// The uint64→int64 cast can go negative on a hostile frame; the
		// server treats any non-positive budget as already expired.
		f.budget = time.Duration(binary.LittleEndian.Uint64(body[off:]))
		f.hasBudget = true
		off += deadlineLen
	}
	f.payload = body[off:]
	return nil
}

// frameReader decodes frames from a connection it exclusively owns. The
// header scratch lives in the struct so the per-read io.ReadFull does not
// force a heap-escaping stack array, and frames come from the pool.
type frameReader struct {
	r   io.Reader
	hdr [4]byte
}

// connReader is the frameReader both ends put on a live connection: reads
// go through a per-connection buffer, so a frame that arrived whole —
// every request and reply of the queue-manager protocol — costs one
// read(2) for header and body together instead of one each. A body larger
// than the buffer is still read straight into its destination.
func connReader(conn net.Conn) frameReader {
	return frameReader{r: bufio.NewReaderSize(conn, connReadBuf)}
}

// connReadBuf is the per-connection read buffer: room for a request or a
// reply of the usual size plus the next frame's header.
const connReadBuf = 4 << 10

// read decodes the next frame. With pooledBody, the frame body comes from
// the buffer pool and dies at frame release — the shape server reads use,
// where payloads must not outlive the handler. Without it, the body is a
// fresh allocation that survives release, so a response payload can be
// handed to the caller. reused reports buffer-pool reuse for the
// rpc.buf_reuse counters.
func (fr *frameReader) read(pooledBody bool) (f *frame, reused bool, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, false, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n < 11 || n > maxFrame { // kind(1) + id(8) + methodLen(2) minimum
		return nil, false, ErrTooLarge
	}
	var body []byte
	var p *buf
	if pooledBody {
		p, reused = getBuf(int(n))
		body = p.b
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(fr.r, body); err != nil {
		p.release()
		return nil, reused, err
	}
	f = getFrame()
	f.body = p
	if err := parseFrame(f, body); err != nil {
		f.release()
		return nil, reused, err
	}
	return f, reused, nil
}

// readFrame is the standalone decode kept for tests and cold paths: the
// frame is unpooled and method is materialized as a string, exactly the
// historical semantics (the fuzz and golden-bytes tests pin them).
func readFrame(r io.Reader) (*frame, error) {
	fr := frameReader{r: r}
	f, _, err := fr.read(false)
	if err != nil {
		return nil, err
	}
	out := &frame{
		kind:      f.kind,
		id:        f.id,
		method:    string(f.methodB),
		ref:       f.ref,
		budget:    f.budget,
		hasBudget: f.hasBudget,
		payload:   f.payload,
	}
	f.release()
	return out, nil
}

// connWriter serializes and batches frame writes on one connection. A
// writer queues its encoded frame under the mutex; whoever finds no flush
// in progress becomes the flusher and drains the queue with a single
// vectored write (net.Buffers → writev on TCP), so N goroutines responding
// concurrently cost one syscall, not N. Queued buffers are owned by the
// writer and released to the pool after the flush.
//
// Errors are sticky: once a write fails the connection is useless, every
// queued-but-unflushed frame is released, and all subsequent writes fail
// fast. A caller whose frame was queued while another goroutine held the
// flush may get nil even though that flush later fails — the failure still
// surfaces, through the connection teardown the sticky error triggers.
type connWriter struct {
	conn net.Conn

	mu       sync.Mutex
	q        net.Buffers // frames awaiting flush
	rel      []*buf      // their pooled owners, released after flush
	spare    net.Buffers // retired backing arrays, reused to keep append alloc-free
	spareRel []*buf
	wbuf     net.Buffers // WriteTo receiver; only the flusher touches it
	flushing bool
	err      error
}

func (w *connWriter) write(p *buf) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		p.release()
		return err
	}
	w.q = append(w.q, p.b)
	w.rel = append(w.rel, p)
	if w.flushing {
		// The active flusher will pick our frame up in its drain loop.
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	for len(w.q) > 0 && w.err == nil {
		local, rel := w.q, w.rel
		w.q, w.rel = w.spare, w.spareRel
		w.mu.Unlock()
		// WriteTo advances its receiver and nils consumed entries, so it
		// runs on the wbuf field (a local receiver would escape through
		// the io.Writer call and cost an allocation per flush); the local
		// header still spans the full backing array and is retired as the
		// next spare without losing capacity.
		w.wbuf = local
		_, err := w.wbuf.WriteTo(w.conn)
		w.wbuf = nil
		for _, b := range rel {
			b.release()
		}
		w.mu.Lock()
		w.spare, w.spareRel = local[:0], rel[:0]
		if err != nil {
			w.err = err
			for _, b := range w.rel {
				b.release()
			}
			w.q, w.rel = nil, nil
		}
	}
	w.flushing = false
	err := w.err
	w.mu.Unlock()
	return err
}

// Stats count wire messages for the experiment harness.
type Stats struct {
	MessagesSent     uint64
	MessagesReceived uint64
	Calls            uint64
	OneWays          uint64
}

// Limits bound a server's concurrently executing requests (admission
// control). Zero values mean unlimited. Requests over a limit are shed
// with a kindBusy response, which clients surface as the retryable
// ErrBusy — graceful degradation under overload instead of unbounded
// goroutine and memory growth. One-way messages are never shed (there is
// no reply to shed them with).
type Limits struct {
	// MaxInflight caps requests executing across all connections.
	MaxInflight int
	// MaxPerConn caps requests executing on any single connection.
	MaxPerConn int
}

// Server dispatches incoming calls to registered handlers.
type Server struct {
	mu          sync.RWMutex
	handlers    map[string]Handler
	refHandlers map[string]RefHandler
	ctxHandlers map[string]CtxHandler
	tracer      *trace.Tracer // nil-safe; nil means tracing disabled
	lis         net.Listener
	conns       map[net.Conn]struct{}
	closed      bool
	wg          sync.WaitGroup

	maxInflight atomic.Int64 // 0 = unlimited
	maxPerConn  atomic.Int64 // 0 = unlimited
	inflight    atomic.Int64

	mSent     *obs.Counter
	mRecv     *obs.Counter
	mRequests *obs.Counter
	mOneWays  *obs.Counter
	mErrors   *obs.Counter
	mShed     *obs.Counter // requests rejected by admission control
	mDropped  *obs.Counter // requests abandoned because the caller's deadline expired
	mBufReuse *obs.Counter // frame buffers served from the pool instead of the heap

	logger atomic.Pointer[log.Logger] // nil-safe; connection lifecycle only
}

// NewServer returns an empty server with a private metrics registry.
func NewServer() *Server { return NewServerWith(nil) }

// NewServerWith returns an empty server recording into reg (nil creates a
// private registry).
func NewServerWith(reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{
		handlers:    make(map[string]Handler),
		refHandlers: make(map[string]RefHandler),
		ctxHandlers: make(map[string]CtxHandler),
		conns:       make(map[net.Conn]struct{}),
		mSent:       reg.Counter("rpc.server.sent"),
		mRecv:       reg.Counter("rpc.server.recv"),
		mRequests:   reg.Counter("rpc.server.requests"),
		mOneWays:    reg.Counter("rpc.server.oneways"),
		mErrors:     reg.Counter("rpc.server.errors"),
		mShed:       reg.Counter("server.shed"),
		mDropped:    reg.Counter("rpc.deadline_drops"),
		mBufReuse:   reg.Counter("rpc.buf_reuse"),
	}
}

// Handle registers a handler for method.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// HandleRef registers a trace-aware handler for method. It takes
// precedence over a plain Handler registered under the same name.
func (s *Server) HandleRef(method string, h RefHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refHandlers[method] = h
}

// HandleCtx registers a context-aware handler for method: its ctx carries
// the caller's trace ref and propagated deadline. Takes precedence over
// HandleRef and Handle under the same name.
func (s *Server) HandleCtx(method string, h CtxHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctxHandlers[method] = h
}

// SetLimits installs admission-control limits; the zero Limits removes
// them. Safe to call while serving.
func (s *Server) SetLimits(l Limits) {
	s.maxInflight.Store(int64(l.MaxInflight))
	s.maxPerConn.Store(int64(l.MaxPerConn))
}

// Inflight reports the number of requests currently executing.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// admit reserves an in-flight slot, reporting false (and releasing the
// reservation) when a limit is exceeded.
func (s *Server) admit(connInflight *atomic.Int64) bool {
	in := s.inflight.Add(1)
	pc := connInflight.Add(1)
	if max := s.maxInflight.Load(); max > 0 && in > max {
		s.release(connInflight)
		return false
	}
	if max := s.maxPerConn.Load(); max > 0 && pc > max {
		s.release(connInflight)
		return false
	}
	return true
}

func (s *Server) release(connInflight *atomic.Int64) {
	s.inflight.Add(-1)
	connInflight.Add(-1)
}

// SetTracer installs the tracer used to record server-side "rpc.<method>"
// spans for traced requests. nil (the default) disables recording; trace
// context still flows through to RefHandlers either way.
func (s *Server) SetTracer(tr *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
}

// SetLogger installs the logger for connection lifecycle events (accept,
// close, frame errors). nil (the default) disables logging; the
// per-frame dispatch path never logs.
func (s *Server) SetLogger(l *log.Logger) {
	if l != nil {
		s.logger.Store(l.Named("rpc"))
	}
}

// Stats returns the server's message counters.
func (s *Server) Stats() Stats {
	return Stats{
		MessagesSent:     s.mSent.Value(),
		MessagesReceived: s.mRecv.Value(),
	}
}

// Serve accepts connections on lis until Close. It returns after the
// listener fails (normally because Close closed it).
func (s *Server) Serve(lis net.Listener) {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.logger.Load().Debug("connection accepted",
			log.Str("peer", conn.RemoteAddr().String()))
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// ListenAndServe listens on addr ("127.0.0.1:0" style) and serves in a
// background goroutine, returning the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen: %w", err)
	}
	go s.Serve(lis)
	return lis.Addr().String(), nil
}

// dispatch runs whichever handler shape is registered for f's method; the
// span (when traced) brackets ref/ctx handlers and hands them a child ref
// to parent downstream work under. It is a plain function taking the
// handlers as arguments — not a per-frame adapter closure, which would
// cost an allocation on the plain-handler hot path.
func dispatch(ctx context.Context, tr *trace.Tracer, ch CtxHandler, cok bool, rh RefHandler, rok bool, h Handler, f *frame) ([]byte, error) {
	switch {
	case cok, rok:
		sp, traced := tr.Begin(f.ref, "rpc."+f.methodStr())
		child := f.ref
		if traced {
			child = sp.Ref()
		}
		var out []byte
		var err error
		if cok {
			out, err = ch(trace.With(ctx, child), f.payload)
		} else {
			out, err = rh(child, f.payload)
		}
		if traced {
			tr.Finish(&sp)
		}
		return out, err
	default:
		return h(f.payload)
	}
}

// respond encodes resp and queues it on the connection's writer. The
// response payload is copied during encode, so the caller may release any
// buffers it aliases as soon as respond returns.
func (s *Server) respond(w *connWriter, resp *frame) {
	p, reused, err := encodeFrame(resp)
	if err != nil {
		return
	}
	if reused {
		s.mBufReuse.Inc()
	}
	if w.write(p) == nil {
		s.mSent.Inc()
	}
}

// runOneWay is the one-way dispatch goroutine body: a method, not a
// per-frame closure, so spawning it costs one argument record and nothing
// else. It owns f and releases it after the handler returns.
func (s *Server) runOneWay(tr *trace.Tracer, ch CtxHandler, cok bool, rh RefHandler, rok bool, h Handler, f *frame) {
	dispatch(context.Background(), tr, ch, cok, rh, rok, h, f)
	f.release()
}

// handleRequest is the request goroutine body. It owns f — the payload the
// handler sees aliases f's pooled body, which dies when handleRequest
// returns, so handlers must not retain it (the queue-manager handlers all
// decode into their own structures before returning).
func (s *Server) handleRequest(ctx context.Context, w *connWriter, connInflight *atomic.Int64, tr *trace.Tracer, ch CtxHandler, cok bool, rh RefHandler, rok bool, h Handler, known bool, f *frame) {
	defer s.release(connInflight)
	if f.hasBudget {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.budget)
		defer cancel()
	}
	var resp frame
	resp.id = f.id
	resp.ref = f.ref // echo the trace context on the reply
	if !known {
		resp.kind = kindError
		resp.payload = []byte(ErrNoMethod.Error() + ": " + f.methodStr())
	} else if out, err := dispatch(ctx, tr, ch, cok, rh, rok, h, f); err != nil {
		resp.kind = kindError
		resp.payload = []byte(err.Error())
	} else {
		resp.kind = kindResp
		resp.payload = out
	}
	if f.hasBudget && ctx.Err() != nil {
		// The handler ran past the caller's budget: whatever we
		// write back will be discarded on arrival.
		s.mDropped.Inc()
	}
	if resp.kind == kindError {
		s.mErrors.Inc()
	}
	s.respond(w, &resp)
	f.release()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	w := &connWriter{conn: conn}
	var connInflight atomic.Int64
	// Requests run under the connection's context: when the connection
	// dies nobody can receive their responses, so a handler still waiting
	// (a dequeue parked on an empty reply queue) stops — uncommitted —
	// instead of outliving its caller and taking an element meant for the
	// caller's next connection.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fr := connReader(conn)
	for {
		f, reused, err := fr.read(true)
		if err != nil {
			if err != io.EOF {
				s.logger.Load().Debug("connection closed",
					log.Str("peer", conn.RemoteAddr().String()), log.Err(err))
			}
			return
		}
		if reused {
			s.mBufReuse.Inc()
		}
		s.mRecv.Inc()
		s.mu.RLock()
		// map[string(bytes)] lookups compile to allocation-free probes.
		ch, cok := s.ctxHandlers[string(f.methodB)]
		rh, rok := s.refHandlers[string(f.methodB)]
		h, ok := s.handlers[string(f.methodB)]
		tr := s.tracer
		s.mu.RUnlock()
		known := cok || rok || ok
		switch f.kind {
		case kindOneWay:
			s.mOneWays.Inc()
			if known {
				go s.runOneWay(tr, ch, cok, rh, rok, h, f)
			} else {
				f.release()
			}
		case kindRequest:
			s.mRequests.Inc()
			if !s.admit(&connInflight) {
				s.mShed.Inc()
				s.respond(w, &frame{kind: kindBusy, id: f.id})
				f.release()
				continue
			}
			if f.hasBudget && f.budget <= 0 {
				// The caller's budget expired in transit; don't start
				// work it has already abandoned.
				s.mDropped.Inc()
				s.release(&connInflight)
				s.respond(w, &frame{kind: kindError, id: f.id, ref: f.ref,
					payload: []byte(context.DeadlineExceeded.Error())})
				f.release()
				continue
			}
			go s.handleRequest(ctx, w, &connInflight, tr, ch, cok, rh, rok, h, known, f)
		default:
			f.release()
		}
	}
}

// Close stops the listener and severs all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// Dialer opens a connection to an address; the chaos layer substitutes
// fault-injecting dialers.
type Dialer func(addr string) (net.Conn, error)

// Client calls a Server. It lazily (re)connects on each call after a
// connection failure, so a transient network fault surfaces as one failed
// call, not a dead client.
type Client struct {
	addr   string
	dialer Dialer

	mu      sync.Mutex
	conn    net.Conn
	cw      *connWriter // batching writer for conn; replaced on redial
	pending map[uint64]*call
	nextID  uint64
	closed  bool

	br breaker // per-endpoint circuit breaker; disarmed until SetBreaker

	mSent     *obs.Counter
	mRecv     *obs.Counter
	mCalls    *obs.Counter
	mOneWays  *obs.Counter
	mErrors   *obs.Counter // transport-level failures (dial, write, dropped conn)
	mRedials  *obs.Counter // reconnects after the first successful dial
	mBufReuse *obs.Counter // frame buffers served from the pool instead of the heap
	mCallNans *obs.Histogram
	dialed    bool // a connection has been established at least once
}

// NewClient returns a client for addr with a private metrics registry.
// dialer nil means plain TCP.
func NewClient(addr string, dialer Dialer) *Client {
	return NewClientWith(addr, dialer, nil)
}

// NewClientWith returns a client recording into reg (nil creates a private
// registry).
func NewClientWith(addr string, dialer Dialer, reg *obs.Registry) *Client {
	if dialer == nil {
		dialer = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Client{
		addr:      addr,
		dialer:    dialer,
		pending:   make(map[uint64]*call),
		br:        breaker{opens: reg.Counter("rpc.client.breaker_opens")},
		mSent:     reg.Counter("rpc.client.sent"),
		mRecv:     reg.Counter("rpc.client.recv"),
		mCalls:    reg.Counter("rpc.client.calls"),
		mOneWays:  reg.Counter("rpc.client.oneways"),
		mErrors:   reg.Counter("rpc.client.errors"),
		mRedials:  reg.Counter("rpc.client.redials"),
		mBufReuse: reg.Counter("rpc.buf_reuse"),
		mCallNans: reg.Histogram("rpc.client.call_ns"),
	}
}

// Stats returns the client's message counters.
func (c *Client) Stats() Stats {
	return Stats{
		MessagesSent:     c.mSent.Value(),
		MessagesReceived: c.mRecv.Value(),
		Calls:            c.mCalls.Value(),
		OneWays:          c.mOneWays.Value(),
	}
}

// ensureConnLocked dials if needed. Caller holds c.mu.
func (c *Client) ensureConnLocked() error {
	if c.closed {
		return ErrConnClosed
	}
	if c.conn != nil {
		return nil
	}
	conn, err := c.dialer(c.addr)
	if err != nil {
		c.mErrors.Inc()
		return &TransportError{Op: "dial " + c.addr, Err: err}
	}
	if c.dialed {
		c.mRedials.Inc()
	}
	c.dialed = true
	c.conn = conn
	c.cw = &connWriter{conn: conn}
	go c.readLoop(conn)
	return nil
}

func (c *Client) readLoop(conn net.Conn) {
	fr := connReader(conn)
	for {
		// The body is unpooled on purpose: the response payload is handed
		// to the caller, whose lifetime the pool cannot see.
		f, _, err := fr.read(false)
		if err != nil {
			c.dropConn(conn)
			return
		}
		c.mRecv.Inc()
		c.mu.Lock()
		pc, ok := c.pending[f.id]
		if ok {
			delete(c.pending, f.id)
		}
		c.mu.Unlock()
		if ok {
			pc.done <- f // cap 1, guaranteed empty while registered
		} else {
			f.release() // response to an abandoned (timed-out) call
		}
	}
}

// dropConn tears down a failed connection and fails its pending calls by
// delivering nil (the channels are pooled and never closed).
func (c *Client) dropConn(conn net.Conn) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
		c.cw = nil
	}
	stale := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	conn.Close()
	for _, pc := range stale {
		pc.done <- nil
	}
}

// unregister abandons a pending call. If a sender (readLoop or dropConn)
// already claimed the entry, exactly one value is in flight or already
// buffered; drain it so the pooled channel goes back empty.
func (c *Client) unregister(id uint64, pc *call) {
	c.mu.Lock()
	if _, ok := c.pending[id]; ok {
		delete(c.pending, id)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	if f := <-pc.done; f != nil {
		f.release()
	}
}

// Call performs a request/response RPC. A remote handler error comes back
// as a *RemoteError, unless ctx has ended by the time it arrives: then
// ctx's error does. Transport failures come back as retryable
// *TransportError. Any deadline on ctx is propagated to the server as a
// relative time budget in the request frame (no metadata is added when
// ctx has no deadline, keeping such frames byte-identical to the old
// format).
func (c *Client) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	start := time.Now()
	var req frame
	req.kind = kindRequest
	req.method = method
	req.ref = trace.From(ctx)
	req.payload = payload
	if dl, ok := ctx.Deadline(); ok {
		req.budget = time.Until(dl)
		req.hasBudget = true
		if req.budget <= 0 {
			return nil, context.DeadlineExceeded
		}
	}
	if err := c.br.allow(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		c.br.record(err)
		return nil, err
	}
	conn, cw := c.conn, c.cw
	c.nextID++
	id := c.nextID
	req.id = id
	pc := getCall()
	c.pending[id] = pc
	c.mu.Unlock()
	c.mSent.Inc()
	c.mCalls.Inc()

	p, reused, err := encodeFrame(&req)
	if err != nil {
		c.unregister(id, pc)
		putCall(pc)
		return nil, err
	}
	if reused {
		c.mBufReuse.Inc()
	}
	if err := cw.write(p); err != nil {
		c.mErrors.Inc()
		c.unregister(id, pc) // before dropConn, so the pooled channel drains clean
		putCall(pc)
		c.dropConn(conn)
		terr := &TransportError{Op: "write", Err: err}
		c.br.record(terr)
		return nil, terr
	}
	select {
	case f := <-pc.done:
		putCall(pc)
		if f == nil {
			c.mErrors.Inc()
			terr := &TransportError{Op: "call", Err: ErrConnClosed}
			c.br.record(terr)
			return nil, terr
		}
		// A response arrived — a complete round trip, even if the handler
		// reported an error or a shed — so the peer is healthy as far as
		// the breaker cares, and it counts toward the latency histogram.
		c.br.record(nil)
		c.mCallNans.Observe(time.Since(start).Nanoseconds())
		switch f.kind {
		case kindError:
			msg := string(f.payload)
			f.release()
			if err := expired(ctx); err != nil {
				// The caller's context ended first: an error frame that beat
				// ctx.Done() to this select (typically the server's own
				// budget expiry, sent as text) reports the same context
				// error ctx.Done() would have, not a handler failure.
				return nil, err
			}
			return nil, &RemoteError{Msg: msg}
		case kindBusy:
			f.release()
			return nil, fmt.Errorf("%w: %s", ErrBusy, method)
		}
		// The response body is unpooled (see readLoop), so the payload
		// survives the frame's return to the pool.
		out := f.payload
		f.release()
		return out, nil
	case <-ctx.Done():
		c.unregister(id, pc)
		putCall(pc)
		return nil, ctx.Err()
	}
}

// expired reports the caller's context error, treating a deadline that
// has passed as expired even before the context's own timer has fired.
// A server cancels a call at receipt time plus the caller's remaining
// budget, which is never earlier than the caller's deadline, so an error
// the expiry produced always arrives past that deadline.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// Send transmits a one-way message: no response, no delivery confirmation.
func (c *Client) Send(method string, payload []byte) error {
	return c.SendCtx(context.Background(), method, payload)
}

// SendCtx is Send carrying any trace context attached to ctx as frame
// metadata. The context does not bound the write (one-ways are fire and
// forget); it exists only to propagate the trace ref.
func (c *Client) SendCtx(ctx context.Context, method string, payload []byte) error {
	if err := c.br.allow(); err != nil {
		return err
	}
	c.mu.Lock()
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		c.br.record(err)
		return err
	}
	conn, cw := c.conn, c.cw
	c.mu.Unlock()
	c.mSent.Inc()
	c.mOneWays.Inc()
	var req frame
	req.kind = kindOneWay
	req.method = method
	req.ref = trace.From(ctx)
	req.payload = payload
	p, reused, err := encodeFrame(&req)
	if err != nil {
		return err
	}
	if reused {
		c.mBufReuse.Inc()
	}
	if err := cw.write(p); err != nil {
		c.mErrors.Inc()
		c.dropConn(conn)
		terr := &TransportError{Op: "send", Err: err}
		c.br.record(terr)
		return terr
	}
	c.br.record(nil)
	return nil
}

// Close severs the connection and fails pending calls.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		c.dropConn(conn)
	}
}

// RemoteError is an error produced by the remote handler (as opposed to a
// transport failure — the distinction matters to the clerk's recovery
// logic: a RemoteError means the server received and processed the call).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }
