package qservice

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/enc"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/rpc"
)

// Client is the typed remote-QM client used by clerks. It mirrors the
// repository's non-transactional surface.
type Client struct {
	rc *rpc.Client
	// names shares the strings every reply repeats: the reply queue's
	// name, the header keys.
	names enc.Interner
}

// NewClient wraps an rpc client.
func NewClient(rc *rpc.Client) *Client { return &Client{rc: rc} }

// RPC exposes the underlying rpc client (stats, close).
func (c *Client) RPC() *rpc.Client { return c.rc }

// Close closes the underlying connection.
func (c *Client) Close() { c.rc.Close() }

// call performs the RPC and peels the status prefix. It takes req back:
// the rpc layer has copied the request into its frame by the time Call
// returns.
func (c *Client) call(ctx context.Context, method string, req *enc.Buffer) (*enc.Reader, error) {
	out, err := c.rc.Call(ctx, method, req.Bytes())
	enc.PutBuffer(req)
	if err != nil {
		return nil, err
	}
	r := enc.NewReader(out)
	if err := readStatus(r); err != nil {
		return nil, err
	}
	return r, nil
}

// wireWait is a wait as the wire carries it: whole milliseconds, rounded
// up, so a sub-millisecond wait stays a wait instead of truncating to 0 —
// "don't wait" — and turning the caller's retry loop into a hot spin.
func wireWait(wait time.Duration) uint64 {
	if wait <= 0 {
		return 0
	}
	return uint64((wait + time.Millisecond - 1) / time.Millisecond)
}

// waitHeadroom is how much longer than the server-side wait a waiting call
// may take, so the server's wait elapses before the RPC's.
const waitHeadroom = 5 * time.Second

// callWaiting is call for a method whose handler may wait up to wait: it
// bounds the call by wait plus headroom, unless ctx's own deadline already
// falls inside that — then ctx is the one deadline context the call needs.
func (c *Client) callWaiting(ctx context.Context, method string, req *enc.Buffer, wait time.Duration) (*enc.Reader, error) {
	if wait > 0 {
		limit := wait + waitHeadroom
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > limit {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, limit)
			defer cancel()
		}
	}
	return c.call(ctx, method, req)
}

// Register registers a registrant with a queue and returns its persistent
// last-operation info.
func (c *Client) Register(ctx context.Context, qname, registrant string, stable bool) (queue.RegInfo, error) {
	b := enc.GetBuffer()
	b.String(qname)
	b.String(registrant)
	b.Bool(stable)
	r, err := c.call(ctx, MethodRegister, b)
	if err != nil {
		return queue.RegInfo{}, err
	}
	var ri queue.RegInfo
	ri.HasLast = r.Bool()
	ri.LastOp = queue.OpType(r.Uint8())
	ri.LastEID = queue.EID(r.Uvarint())
	ri.LastTag = r.BytesField()
	return ri, r.Err()
}

// Deregister destroys the registration.
func (c *Client) Deregister(ctx context.Context, qname, registrant string) error {
	b := enc.GetBuffer()
	b.String(qname)
	b.String(registrant)
	_, err := c.call(ctx, MethodDeregister, b)
	return err
}

func encodeEnqueue(b *enc.Buffer, qname string, e *queue.Element, registrant string, tag []byte) {
	b.String(qname)
	wireElement(b, e)
	b.String(registrant)
	b.BytesField(tag)
}

func encodeDequeue(b *enc.Buffer, qname, registrant string, tag []byte, wait time.Duration, match map[string]string, preferHeader string) {
	b.String(qname)
	b.String(registrant)
	b.BytesField(tag)
	b.Uvarint(wireWait(wait))
	b.StringMap(match)
	b.String(preferHeader)
}

// Enqueue stores an element; on return it is stably stored (the paper's
// Send guarantee).
func (c *Client) Enqueue(ctx context.Context, qname string, e queue.Element, registrant string, tag []byte) (queue.EID, error) {
	b := enc.GetBuffer()
	encodeEnqueue(b, qname, &e, registrant, tag)
	r, err := c.call(ctx, MethodEnqueue, b)
	if err != nil {
		return 0, err
	}
	eid := queue.EID(r.Uvarint())
	return eid, r.Err()
}

// EnqueueOneWay fires the enqueue as a one-way message: no acknowledgement,
// saving the response message in the common case (Section 5). The caller
// learns the outcome when the reply arrives — or at reconnect, from the
// registration tags.
func (c *Client) EnqueueOneWay(qname string, e queue.Element, registrant string, tag []byte) error {
	b := enc.GetBuffer()
	encodeEnqueue(b, qname, &e, registrant, tag)
	err := c.rc.Send(MethodEnqueue1W, b.Bytes())
	enc.PutBuffer(b) // Send copied it into its frame
	return err
}

// Dequeue removes and returns the next element; wait > 0 blocks up to that
// duration before reporting ErrEmpty.
func (c *Client) Dequeue(ctx context.Context, qname, registrant string, tag []byte, wait time.Duration, match map[string]string) (queue.Element, error) {
	return c.dequeue(ctx, qname, registrant, tag, wait, match, "")
}

// DequeueBest removes the available element whose named header has the
// largest numeric value — remote content-based scheduling ("highest dollar
// amount first", Section 10).
func (c *Client) DequeueBest(ctx context.Context, qname, registrant, preferHeader string, wait time.Duration) (queue.Element, error) {
	return c.dequeue(ctx, qname, registrant, nil, wait, nil, preferHeader)
}

func (c *Client) dequeue(ctx context.Context, qname, registrant string, tag []byte, wait time.Duration, match map[string]string, preferHeader string) (queue.Element, error) {
	b := enc.GetBuffer()
	encodeDequeue(b, qname, registrant, tag, wait, match, preferHeader)
	r, err := c.callWaiting(ctx, MethodDequeue, b, wait)
	if err != nil {
		return queue.Element{}, err
	}
	e := readWireElement(r, &c.names)
	return e, r.Err()
}

// Transceive stores e in reqQueue and then takes the next element of
// replyQueue, both as registrant, in one qm.transceive exchange: the
// paper's Transceive, "Send merged with Receive" (Section 5), at the cost
// of one request and one response message. The server runs exactly the
// qm.enqueue and qm.dequeue operations in that order and reports each.
// eid != 0 says the first stage committed — the request is stably stored —
// and err is then the dequeue's (ErrEmpty when no reply came within wait).
// With eid == 0, err is the enqueue's, or the transport's: as after a
// failed Enqueue call, the caller cannot tell how far the exchange got
// except from the registration tags.
func (c *Client) Transceive(ctx context.Context, reqQueue string, e queue.Element, replyQueue, registrant string, sendTag, recvTag []byte, wait time.Duration, match map[string]string) (queue.EID, queue.Element, error) {
	b := enc.GetBuffer()
	encodeEnqueue(b, reqQueue, &e, registrant, sendTag)
	encodeDequeue(b, replyQueue, registrant, recvTag, wait, match, "")
	r, err := c.callWaiting(ctx, MethodTransceive, b, wait)
	if err != nil {
		return 0, queue.Element{}, err
	}
	eid := queue.EID(r.Uvarint())
	if err := r.Err(); err != nil {
		return 0, queue.Element{}, err
	}
	if err := readStatus(r); err != nil {
		return eid, queue.Element{}, err
	}
	rep := readWireElement(r, &c.names)
	return eid, rep, r.Err()
}

// ReadLast returns the registrant's last-operated element (Rereceive).
func (c *Client) ReadLast(ctx context.Context, qname, registrant string) (queue.Element, error) {
	b := enc.GetBuffer()
	b.String(qname)
	b.String(registrant)
	r, err := c.call(ctx, MethodReadLast, b)
	if err != nil {
		return queue.Element{}, err
	}
	e := readWireElement(r, &c.names)
	return e, r.Err()
}

// Read returns a live element by id.
func (c *Client) Read(ctx context.Context, eid queue.EID) (queue.Element, error) {
	b := enc.GetBuffer()
	b.Uvarint(uint64(eid))
	r, err := c.call(ctx, MethodRead, b)
	if err != nil {
		return queue.Element{}, err
	}
	e := readWireElement(r, &c.names)
	return e, r.Err()
}

// KillElement cancels an element (Section 7).
func (c *Client) KillElement(ctx context.Context, eid queue.EID) (bool, error) {
	b := enc.GetBuffer()
	b.Uvarint(uint64(eid))
	r, err := c.call(ctx, MethodKill, b)
	if err != nil {
		return false, err
	}
	killed := r.Bool()
	return killed, r.Err()
}

// CreateQueue creates a queue remotely (idempotent).
func (c *Client) CreateQueue(ctx context.Context, cfg queue.QueueConfig) error {
	b := enc.GetBuffer()
	b.String(cfg.Name)
	b.String(cfg.ErrorQueue)
	b.Varint(int64(cfg.RetryLimit))
	b.Bool(cfg.Volatile)
	b.Bool(cfg.StrictFIFO)
	b.String(cfg.RedirectTo)
	b.Varint(int64(cfg.AlertThreshold))
	b.Varint(int64(cfg.MaxDepth))
	_, err := c.call(ctx, MethodCreateQueue, b)
	return err
}

// Queues lists the repository's queue names.
func (c *Client) Queues(ctx context.Context) ([]string, error) {
	r, err := c.call(ctx, MethodQueues, enc.GetBuffer())
	if err != nil {
		return nil, err
	}
	names := r.StringSlice()
	return names, r.Err()
}

// Stats returns a queue's cumulative counters.
func (c *Client) Stats(ctx context.Context, qname string) (queue.QueueStats, error) {
	b := enc.GetBuffer()
	b.String(qname)
	r, err := c.call(ctx, MethodStats, b)
	if err != nil {
		return queue.QueueStats{}, err
	}
	var st queue.QueueStats
	st.Enqueues = r.Uvarint()
	st.Dequeues = r.Uvarint()
	st.AbortReturns = r.Uvarint()
	st.ErrorDiversions = r.Uvarint()
	st.Kills = r.Uvarint()
	st.Depth = int(r.Varint())
	st.InFlight = int(r.Varint())
	st.MaxDepth = int(r.Varint())
	return st, r.Err()
}

// Metrics fetches the server's full metrics registry snapshot.
func (c *Client) Metrics(ctx context.Context) (obs.Snapshot, error) {
	r, err := c.call(ctx, MethodMetrics, enc.GetBuffer())
	if err != nil {
		return obs.Snapshot{}, err
	}
	j := r.BytesField()
	if err := r.Err(); err != nil {
		return obs.Snapshot{}, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(j, &s); err != nil {
		return obs.Snapshot{}, err
	}
	return s, nil
}

// Health fetches the node's health document as raw JSON (qm.health).
func (c *Client) Health(ctx context.Context) ([]byte, error) {
	r, err := c.call(ctx, MethodHealth, enc.GetBuffer())
	if err != nil {
		return nil, err
	}
	j := r.BytesField()
	return j, r.Err()
}

// Logs fetches up to max recent structured log events as a raw JSON
// array (qm.logs); max <= 0 means everything retained.
func (c *Client) Logs(ctx context.Context, max int) ([]byte, error) {
	b := enc.GetBuffer()
	b.Uvarint(uint64(max))
	r, err := c.call(ctx, MethodLogs, b)
	if err != nil {
		return nil, err
	}
	j := r.BytesField()
	return j, r.Err()
}

// Flight fetches the live flight-recorder document as raw JSON
// (qm.flight).
func (c *Client) Flight(ctx context.Context) ([]byte, error) {
	r, err := c.call(ctx, MethodFlight, enc.GetBuffer())
	if err != nil {
		return nil, err
	}
	j := r.BytesField()
	return j, r.Err()
}

// Repl fetches the node's replication status document as raw JSON
// (qm.repl). ErrNotFound when the node is not replicated.
func (c *Client) Repl(ctx context.Context) ([]byte, error) {
	r, err := c.call(ctx, MethodRepl, enc.GetBuffer())
	if err != nil {
		return nil, err
	}
	j := r.BytesField()
	return j, r.Err()
}

// TraceTree fetches one assembled span tree as raw JSON (an array of
// root nodes) from the server's trace ring. ErrNotFound when the server
// retains no spans for id.
func (c *Client) TraceTree(ctx context.Context, id string) ([]byte, error) {
	b := enc.GetBuffer()
	b.String(id)
	r, err := c.call(ctx, MethodTrace, b)
	if err != nil {
		return nil, err
	}
	j := r.BytesField()
	return j, r.Err()
}

// SlowTraces fetches the slowest-n retained trace summaries as raw JSON.
func (c *Client) SlowTraces(ctx context.Context, n int) ([]byte, error) {
	b := enc.GetBuffer()
	b.Uvarint(uint64(n))
	r, err := c.call(ctx, MethodTraces, b)
	if err != nil {
		return nil, err
	}
	j := r.BytesField()
	return j, r.Err()
}

// DequeueSet removes the best element across several queues (Section 9's
// queue sets): highest priority first, then oldest.
func (c *Client) DequeueSet(ctx context.Context, qnames []string, registrant string, tag []byte, wait time.Duration, match map[string]string) (queue.Element, error) {
	b := enc.GetBuffer()
	b.StringSlice(qnames)
	b.String(registrant)
	b.BytesField(tag)
	b.Uvarint(wireWait(wait))
	b.StringMap(match)
	r, err := c.callWaiting(ctx, MethodDequeueSet, b, wait)
	if err != nil {
		return queue.Element{}, err
	}
	e := readWireElement(r, &c.names)
	return e, r.Err()
}

// Depth returns a queue's visible depth.
func (c *Client) Depth(ctx context.Context, qname string) (int, error) {
	b := enc.GetBuffer()
	b.String(qname)
	r, err := c.call(ctx, MethodDepth, b)
	if err != nil {
		return 0, err
	}
	d := int(r.Uvarint())
	return d, r.Err()
}
