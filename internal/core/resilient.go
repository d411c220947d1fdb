package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
	rlog "repro/internal/obs/log"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// BackoffPolicy shapes the delay between recovery attempts: capped
// exponential growth with jitter, so a herd of recovering clients doesn't
// stampede a freshly restarted queue manager.
type BackoffPolicy struct {
	// Initial is the first delay (default 5ms).
	Initial time.Duration
	// Max caps the delay (default 2s).
	Max time.Duration
	// Multiplier grows the delay per attempt (default 2).
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2).
	Jitter float64
}

func (p BackoffPolicy) withDefaults() BackoffPolicy {
	if p.Initial <= 0 {
		p.Initial = 5 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.2
	}
	return p
}

// ResilientConfig configures a ResilientClerk.
type ResilientConfig struct {
	// Clerk configures the underlying clerk (queue names, client id,
	// tracer, receive wait).
	Clerk ClerkConfig
	// Backoff shapes the retry delays; zero fields take defaults.
	Backoff BackoffPolicy
	// MaxAttempts bounds the attempts per operation; 0 means unbounded —
	// the operation retries until its context ends, which is the paper's
	// model: the client keeps trying until the system recovers.
	MaxAttempts int
	// Metrics receives clerk.recoveries and rpc.retries; nil creates a
	// private registry.
	Metrics *obs.Registry
	// Seed seeds the jitter source; 0 derives one from the clock.
	Seed int64
	// Reconnect, when set, is called during recovery to obtain a fresh
	// connection (re-dialing a failed-over address, or re-binding to a
	// restarted in-process repository). nil keeps the original conn —
	// right for rpc-backed conns, which redial internally per call.
	Reconnect func(ctx context.Context) (QMConn, error)
	// Log receives recovery events (masked failures, reconnects). Nil
	// disables logging.
	Log *rlog.Logger
}

// ResilientClerk wraps the clerk with the paper's client recovery run
// automatically: on any retryable (transport-class) failure it backs off,
// re-Connects, resynchronizes from the registration tags, and then —
// exactly as fig. 2 prescribes — Receives a still-outstanding request,
// Rereceives an already-received reply, or resubmits a request that never
// made it to the queue. Transceive therefore returns exactly-once results
// across server crashes, partitions, and dial refusals, bounded only by
// the caller's context.
//
// Failures the protocol cannot mask — application errors from the server
// (RemoteError → StatusError replies are still delivered as replies),
// protocol violations, context expiry — surface to the caller unchanged.
//
// A ResilientClerk serves one client goroutine, like the Clerk it wraps.
// It does not support interactive (intermediate-I/O) requests.
type ResilientClerk struct {
	qm  QMConn
	cfg ResilientConfig
	rng *rand.Rand

	inner         *Clerk
	connected     bool
	everConnected bool

	curRID string
	origin trace.Ref // root "submit" span of the current rid's first attempt

	mRecoveries *obs.Counter
	mRetries    *obs.Counter
	mFailovers  *obs.Counter
}

// NewResilientClerk returns a disconnected resilient clerk. Connect is
// optional: the first Transceive connects on demand.
func NewResilientClerk(qm QMConn, cfg ResilientConfig) *ResilientClerk {
	cfg.Backoff = cfg.Backoff.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &ResilientClerk{
		qm:          qm,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(seed)),
		mRecoveries: reg.Counter("clerk.recoveries"),
		mRetries:    reg.Counter("rpc.retries"),
		mFailovers:  reg.Counter("clerk.failovers"),
	}
}

// State exposes the underlying clerk's state (Disconnected before the
// first successful Connect).
func (r *ResilientClerk) State() ClientState {
	if r.inner == nil {
		return StateDisconnected
	}
	return r.inner.State()
}

// ReplyQueue returns the clerk's private reply queue name.
func (r *ResilientClerk) ReplyQueue() string {
	if r.cfg.Clerk.ReplyQueue != "" {
		return r.cfg.Clerk.ReplyQueue
	}
	return "reply." + r.cfg.Clerk.ClientID
}

// LastTrace returns the trace id of the current request's first submit —
// retries reuse it, so the whole masked failure is one tree.
func (r *ResilientClerk) LastTrace() trace.ID {
	if r.origin.Valid() {
		return r.origin.Trace
	}
	if r.inner != nil {
		return r.inner.LastTrace()
	}
	return trace.ID{}
}

// Recoveries reports how many times the clerk has run the recovery
// procedure (reconnect + resynchronize) since creation.
func (r *ResilientClerk) Recoveries() uint64 { return r.mRecoveries.Value() }

// Retries reports how many operation retries (including reconnect
// attempts) the clerk has performed since creation.
func (r *ResilientClerk) Retries() uint64 { return r.mRetries.Value() }

// Failovers reports how many recoveries were triggered by a fencing
// rejection — the old primary refusing to ack because a newer epoch
// exists — as opposed to plain transport failures.
func (r *ResilientClerk) Failovers() uint64 { return r.mFailovers.Value() }

// Connect establishes the session, retrying retryable failures with
// backoff. It is optional — operations connect on demand — but lets a
// caller inspect the resynchronisation info (fig. 2's branch).
func (r *ResilientClerk) Connect(ctx context.Context) (ConnectInfo, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := r.checkBudget(ctx, attempt, lastErr); err != nil {
			return ConnectInfo{}, err
		}
		if attempt > 0 {
			r.mRetries.Inc()
			if err := r.sleep(ctx, attempt-1); err != nil {
				return ConnectInfo{}, err
			}
			r.refreshConn(ctx)
		}
		info, err := r.connectOnce(ctx)
		if err == nil {
			return info, nil
		}
		lastErr = err
		if !r.shouldRetry(err) {
			return ConnectInfo{}, err
		}
	}
}

// Disconnect deregisters cleanly. Not retried: a failed disconnect leaves
// registration state behind, which a later Connect resynchronizes from.
func (r *ResilientClerk) Disconnect(ctx context.Context) error {
	if r.inner == nil {
		return nil
	}
	r.connected = false
	return r.inner.Disconnect(ctx)
}

// Transceive submits rid and returns its reply exactly once, masking
// transport failures via automatic recovery. Safe to call again with the
// same rid after a failure (including a previous life's — the
// registration tags disambiguate); a new rid starts a new request.
func (r *ResilientClerk) Transceive(ctx context.Context, rid string, body []byte, headers map[string]string, ckpt []byte) (Reply, error) {
	if rid != r.curRID {
		r.curRID = rid
		r.origin = trace.Ref{}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := r.checkBudget(ctx, attempt, lastErr); err != nil {
			return Reply{}, err
		}
		if attempt > 0 {
			r.mRetries.Inc()
			if err := r.sleep(ctx, attempt-1); err != nil {
				return Reply{}, err
			}
		}
		if !r.connected {
			if err := r.recoverOrConnect(ctx, attempt, lastErr); err != nil {
				lastErr = err
				if !r.shouldRetry(err) {
					return Reply{}, err
				}
				continue
			}
		}
		rep, err := r.attempt(ctx, rid, body, headers, ckpt)
		if err == nil {
			return rep, nil
		}
		lastErr = err
		if !r.shouldRetry(err) {
			return Reply{}, err
		}
		// A shed (ErrBusy) or open breaker means the peer (or the path to
		// it) is known-alive-but-unavailable: back off without tearing the
		// session down. Anything else taints the connection — recover.
		if !errors.Is(err, rpc.ErrBusy) && !errors.Is(err, rpc.ErrCircuitOpen) {
			r.connected = false
		}
	}
}

// attempt runs one pass of fig. 2's decision procedure against a
// connected, resynchronized clerk.
func (r *ResilientClerk) attempt(ctx context.Context, rid string, body []byte, headers map[string]string, ckpt []byte) (Reply, error) {
	c := r.inner
	// A stale outstanding request from an rid the caller abandoned: its
	// reply must be drained before a new Send is legal (fig. 1).
	if c.State() == StateReqSent && c.sRID != rid {
		if _, err := c.Receive(ctx, nil); err != nil {
			return Reply{}, err
		}
	}
	switch {
	case c.State() == StateReqSent && c.sRID == rid:
		// The request is stably queued (perhaps the enqueue's ack was the
		// part that got lost); do not resubmit — wait for its reply.
		return c.Receive(ctx, ckpt)
	case c.State() == StateReplyRecvd && c.sRID == rid:
		// The reply was already dequeued but its delivery to us was lost;
		// re-read the QM's stable copy.
		return c.Rereceive(ctx)
	default:
		c.resubmit = r.origin
		err := c.Send(ctx, rid, body, headers)
		// Capture the first submit's root span even when the Send failed:
		// the span was recorded, and retries must parent under it.
		if !r.origin.Valid() && !c.lastTrace.IsZero() {
			r.origin = trace.Ref{Trace: c.lastTrace, Span: c.lastSpan}
		}
		if err != nil {
			return Reply{}, err
		}
		return c.Receive(ctx, ckpt)
	}
}

// recoverOrConnect (re)establishes the session. The first connection is
// not a recovery; anything after a working session counts one.
func (r *ResilientClerk) recoverOrConnect(ctx context.Context, attempt int, reason error) error {
	if !r.everConnected || reason == nil {
		_, err := r.connectOnce(ctx)
		return err
	}
	r.mRecoveries.Inc()
	if errors.Is(reason, replica.ErrFenced) {
		// Not a crash: the peer answered, telling us it was superseded.
		// The Reconnect factory's re-resolution lands on the promoted
		// standby (client-transparent promotion).
		r.mFailovers.Inc()
	}
	r.cfg.Log.Warn("clerk recovering session",
		rlog.Str("rid", r.curRID),
		rlog.Int("attempt", attempt),
		rlog.Err(reason),
		rlog.Trace(r.origin))
	tr := r.cfg.Clerk.Tracer
	if tr.Enabled() && r.origin.Valid() {
		// The recovery span parents under the original submit, so the
		// request's trace tree shows each masked failure.
		if sp, ok := tr.Begin(r.origin, "clerk.recover"); ok {
			sp.Annotate(trace.Int64("attempt", int64(attempt)), trace.Str("reason", reason.Error()))
			defer tr.Finish(&sp)
		}
	}
	r.refreshConn(ctx)
	_, err := r.connectOnce(ctx)
	return err
}

// connectOnce builds a fresh clerk (fresh FSM) and Connects it: the
// FSM of a failed life is abandoned, exactly as a restarted client
// program's in-memory state would be, and resynchronisation rebuilds it
// from the registration tags.
func (r *ResilientClerk) connectOnce(ctx context.Context) (ConnectInfo, error) {
	c := NewClerk(r.qm, r.cfg.Clerk)
	info, err := c.Connect(ctx)
	if err != nil {
		return ConnectInfo{}, err
	}
	r.inner = c
	r.connected = true
	r.everConnected = true
	return info, nil
}

// refreshConn swaps in a fresh connection from the Reconnect factory, if
// one is configured. A factory failure is ignored here: the subsequent
// Connect fails and drives another backoff round.
func (r *ResilientClerk) refreshConn(ctx context.Context) {
	if r.cfg.Reconnect == nil {
		return
	}
	if qm, err := r.cfg.Reconnect(ctx); err == nil && qm != nil {
		r.qm = qm
	}
}

// shouldRetry: transport-class failures (rpc taxonomy) always; a closed
// or stopped repository only when a Reconnect factory can replace it;
// everything else — application errors, protocol violations, context
// expiry — is terminal.
func (r *ResilientClerk) shouldRetry(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if rpc.Retryable(err) {
		return true
	}
	if r.cfg.Reconnect != nil && (errors.Is(err, queue.ErrClosed) || errors.Is(err, queue.ErrStopped)) {
		return true
	}
	if r.cfg.Reconnect != nil && errors.Is(err, replica.ErrFenced) {
		// A fenced ex-primary: a promoted standby exists somewhere, and
		// only a Reconnect factory can re-resolve to it.
		return true
	}
	return false
}

// checkBudget enforces ctx and MaxAttempts at the top of a retry loop.
func (r *ResilientClerk) checkBudget(ctx context.Context, attempt int, lastErr error) error {
	if r.cfg.MaxAttempts > 0 && attempt >= r.cfg.MaxAttempts {
		return fmt.Errorf("core: %d attempts exhausted: %w", attempt, lastErr)
	}
	if err := ctx.Err(); err != nil {
		if lastErr != nil {
			return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
		}
		return err
	}
	return nil
}

// delay computes the nth (0-based) backoff delay.
func (r *ResilientClerk) delay(n int) time.Duration {
	p := r.cfg.Backoff
	d := float64(p.Initial)
	for i := 0; i < n && d < float64(p.Max); i++ {
		d *= p.Multiplier
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	d *= 1 + p.Jitter*(2*r.rng.Float64()-1)
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

func (r *ResilientClerk) sleep(ctx context.Context, n int) error {
	t := time.NewTimer(r.delay(n))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
