package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/enc"
	"repro/internal/obs/trace"
	"repro/internal/queue"
)

// StatusCanceled marks the synthetic reply a clerk writes into its own
// reply queue when a cancellation succeeds: the promise that the request
// will never execute (Section 7).
const StatusCanceled = "canceled"

// Errors returned by the clerk.
var (
	// ErrRIDMismatch reports a reply whose rid does not match the
	// outstanding request — a protocol violation.
	ErrRIDMismatch = errors.New("core: reply rid does not match outstanding request")
	// ErrNoOutstanding reports Receive with no request outstanding.
	ErrNoOutstanding = errors.New("core: no outstanding request")
	// ErrNotCancelable reports a cancel that lost the race with execution.
	ErrNotCancelable = errors.New("core: request no longer cancelable")
)

// ConnectInfo is what Connect returns (Section 3): the rid of the last
// request sent, the rid of the last reply received, and the last Receive's
// checkpoint — everything a recovering client needs to resynchronize.
type ConnectInfo struct {
	// SRID is the rid of the last Send, or "" if none.
	SRID string
	// RRID is the rid of the request whose reply was last received, or "".
	RRID string
	// Ckpt is the ckpt parameter of the last Receive, or nil.
	Ckpt []byte
	// LastSendEID is the element id of the last Send's request element
	// (for cancellation after recovery).
	LastSendEID queue.EID
	// Outstanding reports SRID != "" && SRID != RRID: a request is in
	// flight and the client should Receive next (fig. 2's branch).
	Outstanding bool
}

// receiveTag is the tag attached to every Receive's dequeue: the rid of
// the previous Send plus the client's checkpoint (Section 5: "tagging the
// Dequeue with ckpt and the rid of the previous Send").
func encodeReceiveTag(rid string, ckpt []byte) []byte {
	b := enc.NewBuffer(32)
	b.String(rid)
	b.BytesField(ckpt)
	return b.Bytes()
}

func decodeReceiveTag(tag []byte) (rid string, ckpt []byte) {
	if len(tag) == 0 {
		return "", nil
	}
	r := enc.NewReader(tag)
	rid = r.String()
	ckpt = r.BytesField()
	if r.Err() != nil {
		return "", nil
	}
	return rid, ckpt
}

// ClerkConfig configures a clerk.
type ClerkConfig struct {
	// ClientID uniquely names the client (the registrant name).
	ClientID string
	// RequestQueue is the server's input queue.
	RequestQueue string
	// ReplyQueue is this client's private reply queue; empty derives
	// "reply.<ClientID>" (Section 5's multiple-client extension).
	ReplyQueue string
	// ReceiveWait bounds each Receive's blocking wait; zero means a long
	// default (30s) per attempt — Receive retries until ctx ends.
	ReceiveWait time.Duration
	// OneWaySend makes Send use a one-way message, forgoing the stable-
	// storage acknowledgement (Section 5's optimisation).
	OneWaySend bool
	// FilterReplies makes every Receive dequeue with a header filter on
	// the outstanding rid, so foreign elements in the reply queue are
	// skipped instead of violating the protocol: residue of an abandoned
	// rid, or anything else another producer put in the reply queue,
	// stays put while the clerk's own reply is delivered. Off, the
	// Receive dequeues whatever is first and fails with ErrRIDMismatch
	// when it is not the outstanding rid's reply.
	FilterReplies bool
	// Tracer, when enabled, stamps every Send with a fresh trace id and a
	// root "submit" span; the id travels with the element through the
	// queue, the server's transaction, and recovery replay. nil disables.
	Tracer *trace.Tracer
}

// Clerk is the client-side runtime library of fig. 5: it translates the
// Client Model's five operations into tagged queue operations. A Clerk is
// used by one client goroutine; it performs no transactions — the client
// is a fault-tolerant sequential program (Section 2).
type Clerk struct {
	qm  QMConn
	cfg ClerkConfig
	fsm *ClientFSM

	sRID        string       // rid of the outstanding (or last) Send
	lastSendEID queue.EID    // its element id, for cancellation
	lastTrace   trace.ID     // trace id stamped on the last Send (zero if untraced)
	lastSpan    trace.SpanID // its root span, for parenting retries
	resubmit    trace.Ref    // when valid, the next Send is a retry parented here
}

// NewClerk returns a disconnected clerk.
func NewClerk(qm QMConn, cfg ClerkConfig) *Clerk {
	if cfg.ReplyQueue == "" {
		cfg.ReplyQueue = "reply." + cfg.ClientID
	}
	if cfg.ReceiveWait <= 0 {
		cfg.ReceiveWait = 30 * time.Second
	}
	return &Clerk{qm: qm, cfg: cfg, fsm: NewClientFSM()}
}

// State exposes the client state machine's current state.
func (c *Clerk) State() ClientState { return c.fsm.State() }

// ReplyQueue returns the clerk's private reply queue name.
func (c *Clerk) ReplyQueue() string { return c.cfg.ReplyQueue }

// LastTrace returns the trace id stamped on the clerk's last Send, or the
// zero id when tracing was off. It identifies the request's span tree in
// the queue manager's trace ring.
func (c *Clerk) LastTrace() trace.ID { return c.lastTrace }

// Connect registers the client with the request and reply queues and
// returns the persistent rids and checkpoint of its previous life
// (Sections 3 and 5). It also drives the fig. 1 resynchronisation branch,
// leaving the clerk in Req-Sent or Reply-Recvd.
func (c *Clerk) Connect(ctx context.Context) (ConnectInfo, error) {
	if err := c.fsm.Fire(EvConnect); err != nil {
		return ConnectInfo{}, err
	}
	// The private reply queue is created on demand.
	if err := c.qm.CreateQueue(ctx, queue.QueueConfig{Name: c.cfg.ReplyQueue}); err != nil {
		c.fsm.state = StateDisconnected
		return ConnectInfo{}, fmt.Errorf("core: ensure reply queue: %w", err)
	}
	reqInfo, err := c.qm.Register(ctx, c.cfg.RequestQueue, c.cfg.ClientID, true)
	if err != nil {
		c.fsm.state = StateDisconnected
		return ConnectInfo{}, fmt.Errorf("core: register request queue: %w", err)
	}
	repInfo, err := c.qm.Register(ctx, c.cfg.ReplyQueue, c.cfg.ClientID, true)
	if err != nil {
		c.fsm.state = StateDisconnected
		return ConnectInfo{}, fmt.Errorf("core: register reply queue: %w", err)
	}
	var info ConnectInfo
	if reqInfo.HasLast && reqInfo.LastOp == queue.OpEnqueue {
		info.SRID = string(reqInfo.LastTag)
		info.LastSendEID = reqInfo.LastEID
	}
	if repInfo.HasLast && repInfo.LastOp == queue.OpDequeue {
		info.RRID, info.Ckpt = decodeReceiveTag(repInfo.LastTag)
	}
	info.Outstanding = info.SRID != "" && info.SRID != info.RRID
	c.sRID = info.SRID
	c.lastSendEID = info.LastSendEID
	if info.Outstanding {
		if err := c.fsm.Fire(EvResyncReqSent); err != nil {
			return ConnectInfo{}, err
		}
	} else {
		if err := c.fsm.Fire(EvResyncReplyRecvd); err != nil {
			return ConnectInfo{}, err
		}
	}
	return info, nil
}

// Disconnect deregisters the client from both queues. Registration state
// is destroyed, so only disconnect a client with no outstanding request.
func (c *Clerk) Disconnect(ctx context.Context) error {
	if err := c.fsm.Fire(EvDisconnect); err != nil {
		return err
	}
	if err := c.qm.Deregister(ctx, c.cfg.RequestQueue, c.cfg.ClientID); err != nil {
		return err
	}
	return c.qm.Deregister(ctx, c.cfg.ReplyQueue, c.cfg.ClientID)
}

// Send submits a request with the given rid. When Send returns (in the
// default RPC mode), the request and rid are stably stored (Section 3).
func (c *Clerk) Send(ctx context.Context, rid string, body []byte, headers map[string]string) error {
	return c.send(ctx, EvSend, rid, body, headers, nil, 0)
}

func (c *Clerk) send(ctx context.Context, ev ClientEvent, rid string, body []byte, headers map[string]string, scratch []byte, step int) error {
	if !c.fsm.Can(ev) {
		return fmt.Errorf("core: illegal %s in state %s", ev, c.fsm.State())
	}
	e := requestElement(rid, c.cfg.ClientID, c.cfg.ReplyQueue, body, headers, scratch, step)
	ctx, sp, traced := c.stamp(ctx, &e, rid)
	if traced {
		defer c.cfg.Tracer.Finish(&sp)
	}
	if c.cfg.OneWaySend {
		if err := c.qm.EnqueueOneWay(c.cfg.RequestQueue, e, c.cfg.ClientID, []byte(rid)); err != nil {
			return err
		}
		c.lastSendEID = 0 // unknown until reconnect
	} else {
		eid, err := c.qm.Enqueue(ctx, c.cfg.RequestQueue, e, c.cfg.ClientID, []byte(rid))
		if err != nil {
			return err
		}
		c.lastSendEID = eid
	}
	c.sRID = rid
	return c.fsm.Fire(ev)
}

// stamp starts the request's trace, when the clerk has a tracer: it stamps
// e with the trace id and a root span, and returns ctx carrying that span
// for the queue-manager call to parent under. The caller finishes sp when
// traced.
func (c *Clerk) stamp(ctx context.Context, e *queue.Element, rid string) (context.Context, trace.Span, bool) {
	retry := c.resubmit
	c.resubmit = trace.Ref{}
	c.lastTrace = trace.ID{}
	c.lastSpan = 0
	if !c.cfg.Tracer.Enabled() {
		return ctx, trace.Span{}, false
	}
	// Root span of the request's causal tree: everything downstream —
	// the enqueue, the server's processing after (possibly) a crash
	// and replay, the reply — parents under it via the element. A
	// resubmission during clerk recovery reuses the original trace and
	// parents a "submit.retry" span under the first submit, so one
	// tree shows the whole masked failure.
	name := "submit"
	parent := trace.Ref{}
	if retry.Valid() {
		name = "submit.retry"
		parent = retry
		e.Trace = retry.Trace
	} else {
		e.Trace = trace.NewID()
		parent = trace.Ref{Trace: e.Trace}
	}
	sp, _ := c.cfg.Tracer.Begin(parent, name)
	sp.Annotate(trace.Str("rid", rid), trace.Str("client", c.cfg.ClientID))
	e.Span = sp.ID
	c.lastTrace = e.Trace
	c.lastSpan = sp.ID
	return trace.With(ctx, sp.Ref()), sp, true
}

// replyMatch is the header filter of a Receive for rid's reply, nil unless
// the clerk filters replies.
func (c *Clerk) replyMatch(rid string) map[string]string {
	if !c.cfg.FilterReplies {
		return nil
	}
	return map[string]string{hdrRID: rid}
}

// Receive returns the next reply, tagging the dequeue with the previous
// Send's rid and the caller's checkpoint. It blocks until the reply
// arrives or ctx ends. Intermediate output of an interactive request moves
// the clerk to Intermediate-I/O instead of Reply-Recvd.
func (c *Clerk) Receive(ctx context.Context, ckpt []byte) (Reply, error) {
	if !c.fsm.Can(EvReceive) {
		return Reply{}, fmt.Errorf("core: illegal Receive in state %s: %w", c.fsm.State(), ErrNoOutstanding)
	}
	tag := encodeReceiveTag(c.sRID, ckpt)
	match := c.replyMatch(c.sRID)
	for {
		el, err := c.qm.Dequeue(ctx, c.cfg.ReplyQueue, c.cfg.ClientID, tag, c.cfg.ReceiveWait, match)
		if errors.Is(err, queue.ErrEmpty) {
			if ctx.Err() != nil {
				return Reply{}, ctx.Err()
			}
			continue // keep waiting: the reply is coming (exactly-once)
		}
		if err != nil {
			return Reply{}, err
		}
		return c.received(&el)
	}
}

// received turns the element a tagged dequeue returned into the Receive's
// result and moves the state machine.
func (c *Clerk) received(el *queue.Element) (Reply, error) {
	rep, err := parseReply(el)
	if err != nil {
		return Reply{}, err
	}
	if rep.RID != c.sRID {
		return Reply{}, fmt.Errorf("%w: got %q, want %q", ErrRIDMismatch, rep.RID, c.sRID)
	}
	ev := EvReceive
	if rep.Intermediate {
		ev = EvReceiveIntermediate
	}
	if err := c.fsm.Fire(ev); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

// Rereceive re-reads the reply returned by the client's last Receive, from
// the queue manager's stable registration copy (Section 3: receive-the-
// reply is idempotent because the QM retains the reply).
func (c *Clerk) Rereceive(ctx context.Context) (Reply, error) {
	if !c.fsm.Can(EvRereceive) {
		return Reply{}, fmt.Errorf("core: illegal Rereceive in state %s", c.fsm.State())
	}
	el, err := c.qm.ReadLast(ctx, c.cfg.ReplyQueue, c.cfg.ClientID)
	if err != nil {
		return Reply{}, err
	}
	rep, err := parseReply(&el)
	if err != nil {
		return Reply{}, err
	}
	if err := c.fsm.Fire(EvRereceive); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

// SendIntermediate supplies intermediate input to an interactive request
// (fig. 7): a request for the next transaction of the pseudo-conversation
// (Section 8.2). The scratch pad echoes the conversation state from the
// last intermediate output.
func (c *Clerk) SendIntermediate(ctx context.Context, rid string, input []byte, scratch []byte, step int) error {
	return c.send(ctx, EvSendIntermediate, rid, input, map[string]string{hdrConv: "1"}, scratch, step)
}

// Transceive merges Send and Receive into one exchange with the queue
// manager (Section 5) and blocks the client until the reply arrives. The
// queue manager performs the Send's tagged enqueue and then the Receive's
// tagged dequeue and reports each, so the clerk ends where Send;Receive
// would have: a request stored with no reply inside ReceiveWait leaves it in
// Req-Sent, waiting in Receive's loop; a failed exchange leaves it where a
// failed Send does, and reconnecting resynchronizes from the tags (fig. 2).
//
// A OneWaySend clerk is the exception: its Send has no acknowledgement to
// merge with the reply, so it Sends and then Receives.
func (c *Clerk) Transceive(ctx context.Context, rid string, body []byte, headers map[string]string, ckpt []byte) (Reply, error) {
	if c.cfg.OneWaySend {
		if err := c.Send(ctx, rid, body, headers); err != nil {
			return Reply{}, err
		}
		return c.Receive(ctx, ckpt)
	}
	if !c.fsm.Can(EvSend) {
		return Reply{}, fmt.Errorf("core: illegal %s in state %s", EvSend, c.fsm.State())
	}
	e := requestElement(rid, c.cfg.ClientID, c.cfg.ReplyQueue, body, headers, nil, 0)
	callCtx, sp, traced := c.stamp(ctx, &e, rid)
	if traced {
		defer c.cfg.Tracer.Finish(&sp)
	}
	eid, el, err := c.qm.Transceive(callCtx, c.cfg.RequestQueue, e, c.cfg.ReplyQueue, c.cfg.ClientID,
		[]byte(rid), encodeReceiveTag(rid, ckpt), c.cfg.ReceiveWait, c.replyMatch(rid))
	if eid == 0 {
		return Reply{}, err
	}
	c.lastSendEID = eid
	c.sRID = rid
	if err := c.fsm.Fire(EvSend); err != nil {
		return Reply{}, err
	}
	if errors.Is(err, queue.ErrEmpty) {
		return c.Receive(ctx, ckpt) // stored; the reply is still coming
	}
	if err != nil {
		return Reply{}, err
	}
	return c.received(&el)
}

// CancelLastRequest tries to cancel the outstanding request by killing its
// queue element (Section 7). On success the clerk writes a synthetic
// canceled-reply into its own reply queue — the durable promise that the
// request will never execute — and moves to Reply-Recvd. If the server
// already dequeued and committed (or the request element is unknown, as
// after a one-way Send), ErrNotCancelable is returned and the client must
// keep waiting for the real reply.
func (c *Clerk) CancelLastRequest(ctx context.Context) error {
	if c.fsm.State() != StateReqSent {
		return fmt.Errorf("core: illegal Cancel in state %s", c.fsm.State())
	}
	if c.lastSendEID == 0 {
		return fmt.Errorf("%w: request element unknown", ErrNotCancelable)
	}
	killed, err := c.qm.KillElement(ctx, c.lastSendEID)
	if err != nil {
		return err
	}
	if !killed {
		return ErrNotCancelable
	}
	// The synthetic reply keeps resynchronisation sound: after it is
	// received (now or after a crash), s-rid == r-rid again.
	rep := replyElement(c.sRID, StatusCanceled, nil, false, nil, 0)
	if _, err := c.qm.Enqueue(ctx, c.cfg.ReplyQueue, rep, "", nil); err != nil {
		return fmt.Errorf("core: cancel reply: %w", err)
	}
	rcv, err := c.Receive(ctx, nil)
	if err != nil {
		return err
	}
	if rcv.Status != StatusCanceled {
		return fmt.Errorf("core: unexpected reply %q while canceling", rcv.Status)
	}
	return nil
}
