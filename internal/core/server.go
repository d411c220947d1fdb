package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/txn"
)

// ErrCrashed is returned by a server loop that hit an injected crash point;
// the actor harness treats it as the process dying.
var ErrCrashed = errors.New("core: injected server crash")

// AppError marks an application-level failure: the request was executed
// unsuccessfully and the server replies with a StatusError reply — still
// exactly-once ("the system may process the request by unsuccessfully
// attempting to execute the request, and then returning a reply that
// indicates that fact", Section 3). Any other handler error aborts the
// transaction, returning the request to the queue for retry (and
// eventually the error queue).
type AppError struct{ Msg string }

func (e *AppError) Error() string { return e.Msg }

// Failf builds an AppError.
func Failf(format string, args ...any) error {
	return &AppError{Msg: fmt.Sprintf(format, args...)}
}

// ReqCtx is the handler's view of one request execution. The handler runs
// inside the server's transaction: its repository updates (via Txn) commit
// or abort atomically with the dequeue and the reply enqueue (fig. 5).
type ReqCtx struct {
	// Ctx is the server loop's context.
	Ctx context.Context
	// Txn is the surrounding transaction.
	Txn *txn.Txn
	// Repo is the server's repository (queues + shared database tables).
	Repo *queue.Repository
	// Request is the request being processed.
	Request Request
}

// Handler processes one request and returns the reply body.
type Handler func(rc *ReqCtx) ([]byte, error)

// ServerConfig configures a server loop.
type ServerConfig struct {
	// Repo is the repository hosting the server's queues (the server is
	// co-located with its queue manager, Section 2).
	Repo *queue.Repository
	// Queue is the request queue to serve.
	Queue string
	// Name is the server's registrant name.
	Name string
	// Handler processes requests.
	Handler Handler
	// Crash, when set, is consulted at the loop's crash points:
	// "server.afterDequeue", "server.beforeReply", "server.beforeCommit",
	// "server.afterCommit".
	Crash *chaos.Points
	// ReplyPriority sets the priority of reply elements.
	ReplyPriority int32
}

// ServerStats counts a server loop's work.
type ServerStats struct {
	Processed uint64 // committed request executions
	AppErrors uint64 // committed error replies
	Aborts    uint64 // aborted attempts (including injected crashes)
}

// Server runs the fig. 5 loop: register, then {begin; dequeue; process;
// enqueue reply; commit} forever. Run several Servers (or several Serve
// goroutines) on one queue for load sharing (Section 1).
type Server struct {
	cfg ServerConfig

	processed atomic.Uint64
	appErrors atomic.Uint64
	aborts    atomic.Uint64
}

// NewServer validates the config and returns a Server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Repo == nil || cfg.Queue == "" || cfg.Handler == nil {
		return nil, errors.New("core: server needs Repo, Queue, and Handler")
	}
	if cfg.Name == "" {
		cfg.Name = "server." + cfg.Queue
	}
	return &Server{cfg: cfg}, nil
}

// Stats returns the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Processed: s.processed.Load(),
		AppErrors: s.appErrors.Load(),
		Aborts:    s.aborts.Load(),
	}
}

// Serve processes requests until ctx is done (returns nil), the repository
// closes (returns nil), or an injected crash point fires (returns
// ErrCrashed). Per fig. 5 the server registers with stable-flag FALSE: it
// needs no recovery state of its own — the queues carry everything.
func (s *Server) Serve(ctx context.Context) error {
	repo := s.cfg.Repo
	if _, _, err := repo.Register(s.cfg.Queue, s.cfg.Name, false); err != nil {
		return fmt.Errorf("core: server register: %w", err)
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		err := s.serveOne(ctx)
		switch {
		case err == nil:
		case errors.Is(err, ErrCrashed):
			return err
		case errors.Is(err, queue.ErrClosed):
			return nil
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return nil
		default:
			// Aborted attempt (poison request, doomed txn, stopped queue,
			// …): back off briefly and loop; the error-queue mechanism
			// bounds per-request retries.
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
}

func (s *Server) serveOne(ctx context.Context) error {
	repo := s.cfg.Repo
	t := repo.Begin()
	el, err := repo.Dequeue(ctx, t, s.cfg.Queue, s.cfg.Name, queue.DequeueOpts{Wait: true})
	if err != nil {
		t.Abort()
		return err
	}
	if s.crash("server.afterDequeue") {
		t.Abort() // the in-process stand-in for dying mid-transaction
		s.aborts.Add(1)
		return ErrCrashed
	}
	req, err := parseRequest(&el)
	if err != nil {
		// Not a request: malformed element. Abort; retries divert it to
		// the error queue.
		t.Abort()
		s.aborts.Add(1)
		return err
	}
	// The processing span resumes the request's trace — after a crash the
	// replayed element carries the original trace id, so the re-execution
	// lands in the same tree. Final: finishing it assembles the tree for
	// slow-trace emission. retry counts every prior attempt the element
	// survived: aborts (AbortCount) plus a crash-recovery redelivery.
	sp, traced := repo.Tracer().Begin(el.TraceRef(), "process")
	if traced {
		sp.Final = true
		retry := int64(el.AbortCount)
		if el.Redelivered {
			retry++
		}
		sp.Annotate(
			trace.Str("rid", req.RID),
			trace.Str("server", s.cfg.Name),
			trace.Int64("retry", retry),
			trace.Int64("txn", int64(t.ID())),
		)
		t.SetTrace(sp.Ref())
		defer repo.Tracer().Finish(&sp)
	}
	body, herr := s.cfg.Handler(&ReqCtx{Ctx: ctx, Txn: t, Repo: repo, Request: req})
	status := StatusOK
	var appErr *AppError
	switch {
	case herr == nil:
	case errors.As(herr, &appErr):
		status = StatusError
		body = []byte(appErr.Msg)
	default:
		t.Abort()
		s.aborts.Add(1)
		return fmt.Errorf("core: handler: %w", herr)
	}
	if traced {
		sp.Annotate(trace.Str("status", status))
	}
	if s.crash("server.beforeReply") {
		t.Abort()
		s.aborts.Add(1)
		return ErrCrashed
	}
	if req.ReplyTo != "" {
		// The reply element takes its own copy of body — the handler may
		// have returned memory it keeps — and the repository keeps the
		// element as built.
		rep := replyElement(req.RID, status, append([]byte(nil), body...), false, nil, 0)
		rep.Priority = s.cfg.ReplyPriority
		if traced {
			// The reply rides the same trace; its enqueue span parents
			// under the processing span.
			rep.Trace = el.Trace
			rep.Span = sp.ID
		}
		if _, err := repo.EnqueueOwned(t, req.ReplyTo, rep, "", nil); err != nil {
			t.Abort()
			s.aborts.Add(1)
			return fmt.Errorf("core: enqueue reply: %w", err)
		}
	}
	if s.crash("server.beforeCommit") {
		t.Abort()
		s.aborts.Add(1)
		return ErrCrashed
	}
	if err := t.Commit(); err != nil {
		s.aborts.Add(1)
		return fmt.Errorf("core: commit: %w", err)
	}
	s.processed.Add(1)
	if status == StatusError {
		s.appErrors.Add(1)
	}
	if s.crash("server.afterCommit") {
		return ErrCrashed
	}
	return nil
}

func (s *Server) crash(point string) bool {
	return s.cfg.Crash != nil && s.cfg.Crash.Hit(point)
}
