package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/queue"
	"repro/internal/queue/qservice"
)

// QMConn is the clerk's view of a queue manager: the non-transactional
// surface of Section 4's abstraction. It is satisfied both by a local
// in-process repository (LocalConn) and by a remote one over RPC
// (qservice.Client) — the clerk neither knows nor cares, which is the
// paper's indirection point.
type QMConn interface {
	Register(ctx context.Context, qname, registrant string, stable bool) (queue.RegInfo, error)
	Deregister(ctx context.Context, qname, registrant string) error
	Enqueue(ctx context.Context, qname string, e queue.Element, registrant string, tag []byte) (queue.EID, error)
	EnqueueOneWay(qname string, e queue.Element, registrant string, tag []byte) error
	Dequeue(ctx context.Context, qname, registrant string, tag []byte, wait time.Duration, match map[string]string) (queue.Element, error)
	// Transceive is Enqueue(reqQueue, e, registrant, sendTag) followed by
	// Dequeue(replyQueue, registrant, recvTag, wait, match), as one exchange
	// with the queue manager (Section 5: "Send merged with Receive"). eid
	// != 0 reports that the enqueue committed, and err is then the
	// dequeue's; with eid == 0 err is the enqueue's or the transport's, and
	// — as after a failed Enqueue — only the registration tags can say how
	// far the exchange got.
	Transceive(ctx context.Context, reqQueue string, e queue.Element, replyQueue, registrant string, sendTag, recvTag []byte, wait time.Duration, match map[string]string) (eid queue.EID, reply queue.Element, err error)
	ReadLast(ctx context.Context, qname, registrant string) (queue.Element, error)
	KillElement(ctx context.Context, eid queue.EID) (bool, error)
	CreateQueue(ctx context.Context, cfg queue.QueueConfig) error
}

// LocalConn adapts an in-process repository to QMConn.
type LocalConn struct {
	Repo *queue.Repository
}

var _ QMConn = (*LocalConn)(nil)
var _ QMConn = (*qservice.Client)(nil)

// Register implements QMConn.
func (c *LocalConn) Register(ctx context.Context, qname, registrant string, stable bool) (queue.RegInfo, error) {
	_, ri, err := c.Repo.Register(qname, registrant, stable)
	return ri, err
}

// Deregister implements QMConn.
func (c *LocalConn) Deregister(ctx context.Context, qname, registrant string) error {
	return c.Repo.Deregister(c.Repo.HandleFor(qname, registrant))
}

// Enqueue implements QMConn.
func (c *LocalConn) Enqueue(ctx context.Context, qname string, e queue.Element, registrant string, tag []byte) (queue.EID, error) {
	return c.Repo.Enqueue(nil, qname, e, registrant, tag)
}

// EnqueueOneWay implements QMConn; locally the distinction is moot, the
// enqueue simply runs synchronously.
func (c *LocalConn) EnqueueOneWay(qname string, e queue.Element, registrant string, tag []byte) error {
	_, err := c.Repo.Enqueue(nil, qname, e, registrant, tag)
	return err
}

// Dequeue implements QMConn.
func (c *LocalConn) Dequeue(ctx context.Context, qname, registrant string, tag []byte, wait time.Duration, match map[string]string) (queue.Element, error) {
	opts := queue.DequeueOpts{Tag: tag, HeaderMatch: match}
	if wait > 0 {
		opts.Wait = true
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	e, err := c.Repo.Dequeue(ctx, nil, qname, registrant, opts)
	if errors.Is(err, context.DeadlineExceeded) {
		return queue.Element{}, queue.ErrEmpty
	}
	return e, err
}

// Transceive implements QMConn: locally there is no message to save, so
// it is Enqueue and then Dequeue.
func (c *LocalConn) Transceive(ctx context.Context, reqQueue string, e queue.Element, replyQueue, registrant string, sendTag, recvTag []byte, wait time.Duration, match map[string]string) (queue.EID, queue.Element, error) {
	eid, err := c.Enqueue(ctx, reqQueue, e, registrant, sendTag)
	if err != nil {
		return 0, queue.Element{}, err
	}
	rep, err := c.Dequeue(ctx, replyQueue, registrant, recvTag, wait, match)
	return eid, rep, err
}

// ReadLast implements QMConn.
func (c *LocalConn) ReadLast(ctx context.Context, qname, registrant string) (queue.Element, error) {
	return c.Repo.HandleFor(qname, registrant).ReadLast()
}

// KillElement implements QMConn.
func (c *LocalConn) KillElement(ctx context.Context, eid queue.EID) (bool, error) {
	return c.Repo.KillElement(eid)
}

// CreateQueue implements QMConn (idempotent, like the remote one).
func (c *LocalConn) CreateQueue(ctx context.Context, cfg queue.QueueConfig) error {
	err := c.Repo.CreateQueue(cfg)
	if errors.Is(err, queue.ErrExists) {
		return nil
	}
	return err
}
