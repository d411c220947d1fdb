// Package queue implements the recoverable queue manager (QM) of the
// paper's Section 4, as a main-memory database (Section 10): all state
// lives in memory, durability comes from the shared write-ahead log plus
// periodic snapshots.
//
// A Repository holds named queues of elements, per-registrant persistent
// registrations with operation tags (the paper's novel feature, Section
// 4.3), transactional key-value tables (the shared database that servers
// update while processing requests), and triggers (the fork/join mechanism
// of Section 6). All data-manipulation operations are all-or-nothing and
// serializable; invoked inside a transaction they obey transaction
// semantics, invoked outside one they auto-commit — the queue is the
// "gateway between the non-transaction world of front-ends and the
// transactional world of back-ends" (Section 2).
package queue

import (
	"fmt"

	"repro/internal/enc"
	"repro/internal/obs/trace"
)

// EID is an element identifier, unique within a repository for the lifetime
// of the repository (never reused while any record of the element may
// exist).
type EID uint64

// OpType distinguishes the kinds of tagged operations recorded in a
// registration (Section 4.3: "the QM must maintain the type of the last
// operation executed by each registrant").
type OpType uint8

const (
	// OpNone means the registrant has performed no tagged operation.
	OpNone OpType = iota
	// OpEnqueue is a tagged Enqueue.
	OpEnqueue
	// OpDequeue is a tagged Dequeue.
	OpDequeue
)

func (o OpType) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	default:
		return fmt.Sprintf("OpType(%d)", uint8(o))
	}
}

// Element is a queue element. The queue manager treats Body as opaque; the
// surrounding request-processing protocols define its contents.
type Element struct {
	// EID is assigned by the repository at Enqueue.
	EID EID
	// Queue is the queue currently holding the element.
	Queue string
	// Priority orders dequeues: higher first, FIFO within a priority.
	Priority int32
	// Body is the uninterpreted payload.
	Body []byte
	// Headers carry small key/value metadata; content-based retrieval
	// matches on them.
	Headers map[string]string
	// ScratchPad passes state between the transactions of a
	// multi-transaction request (the IMS scratch pad, Section 9).
	ScratchPad []byte
	// ReplyTo names the queue a reply should be enqueued into; servers use
	// it to serve many clients with private reply queues (Section 5).
	ReplyTo string
	// AbortCount counts how many dequeuing transactions have aborted and
	// returned the element (Section 4.2).
	AbortCount int32
	// AbortCode describes the last abort that returned the element; set
	// when the element is diverted to an error queue.
	AbortCode string
	// Trace is the request's trace ID, stamped by the submitting client
	// and persisted with the element so a dequeuing server — including
	// one re-executing the request after crash recovery — resumes the
	// same trace. Zero means untraced.
	Trace trace.ID
	// Span is the span under which the element's subsequent lifecycle
	// parents (the enqueue span once enqueued).
	Span trace.SpanID
	// Redelivered reports that this copy of the element was
	// reconstructed from the log or a snapshot (crash recovery) rather
	// than enqueued in this process lifetime. In-memory only — never
	// encoded — it drives the trace retry annotation.
	Redelivered bool

	// seq fixes FIFO order within a priority; assigned at enqueue.
	seq uint64
}

// TraceRef returns the element's trace context for parenting new spans.
func (e *Element) TraceRef() trace.Ref {
	return trace.Ref{Trace: e.Trace, Span: e.Span}
}

// Seq exposes the FIFO sequence for diagnostics and tests.
func (e *Element) Seq() uint64 { return e.seq }

// clone returns a deep copy so callers can never alias repository state.
func (e *Element) clone() Element {
	c := *e
	if e.Body != nil {
		c.Body = append([]byte(nil), e.Body...)
	}
	if e.ScratchPad != nil {
		c.ScratchPad = append([]byte(nil), e.ScratchPad...)
	}
	if e.Headers != nil {
		c.Headers = make(map[string]string, len(e.Headers))
		for k, v := range e.Headers {
			c.Headers[k] = v
		}
	}
	return c
}

// encodeElement appends el, an element of queue, to b: one encoding for the
// log, the snapshot and a registration's element copy. The headers are
// already in it.
func encodeElement(b *enc.Buffer, el *elem, queue string) {
	c := el.coldRead()
	b.Uvarint(uint64(el.eid))
	b.String(queue)
	b.Varint(int64(el.priority))
	b.BytesField(el.body)
	if el.headers == "" {
		b.Uvarint(0)
	} else {
		b.AppendString(string(el.headers))
	}
	b.BytesField(c.scratchPad)
	b.String(el.replyTo)
	b.Varint(int64(el.abortCount))
	b.String(c.abortCode)
	b.Uvarint(el.seq)
}

// decodeElement reads an element written by encodeElement into el and
// returns the queue it names. The element owns everything it ends up with —
// r's input may be a view into a buffer about to be reused — and what it
// shares with other elements (the queue names) it shares through in (nil
// for none).
func decodeElement(r *enc.Reader, in *enc.Interner, el *elem) (queue string, err error) {
	el.eid = EID(r.Uvarint())
	queue = in.Intern(r.View())
	el.priority = int32(r.Varint())
	el.body = r.BytesField()
	el.headers = readPackedHeaders(r)
	if v := r.View(); len(v) != 0 {
		el.coldWrite().scratchPad = append(make([]byte, 0, len(v)), v...)
	}
	el.replyTo = in.Intern(r.View())
	el.abortCount = int32(r.Varint())
	if v := r.View(); len(v) != 0 {
		el.coldWrite().abortCode = string(v)
	}
	el.seq = r.Uvarint()
	return queue, r.Err()
}

// encodeTraceTail appends el's trace context after an encodeElement body.
// Kept separate from encodeElement so every container (redo record,
// registration blob, snapshot, wire frame) appends it explicitly at its
// own tail position, where absent bytes decode as untraced — which is
// how pre-trace encodings stay readable.
func encodeTraceTail(b *enc.Buffer, el *elem) {
	c := el.coldRead()
	b.TraceTail([16]byte(c.trace), uint64(c.span))
}

// decodeTraceTail reads a tail written by encodeTraceTail (or nothing,
// for old-format data) into el.
func decodeTraceTail(r *enc.Reader, el *elem) {
	if id, span := r.TraceTail(); id != ([16]byte{}) || span != 0 {
		c := el.coldWrite()
		c.trace, c.span = trace.ID(id), trace.SpanID(span)
	}
}

// marshalElem returns the stand-alone encoding of el, an element in its
// queue (used for the stable element copies kept in registrations), trace
// tail included.
func marshalElem(el *elem) []byte {
	b := enc.NewBuffer(64 + len(el.body))
	encodeElement(b, el, el.q.Load().name)
	encodeTraceTail(b, el)
	return b.Bytes()
}

// encodeDetached appends, in encodeElement's format, an element that is in
// no locked queue — a ring element, a trigger's — with the trace tail if
// the container keeps one.
func encodeDetached(b *enc.Buffer, e *Element, traceTail bool) {
	var el elem
	el.fill(e, true) // only read
	encodeElement(b, &el, e.Queue)
	if traceTail {
		encodeTraceTail(b, &el)
	}
}

// decodeDetached reads what encodeDetached wrote.
func decodeDetached(r *enc.Reader, in *enc.Interner, traceTail bool) (Element, error) {
	var el elem
	queue, err := decodeElement(r, in, &el)
	if err != nil {
		return Element{}, err
	}
	if traceTail {
		decodeTraceTail(r, &el)
	}
	e := el.element(true) // el is this function's own
	e.Queue = queue
	return e, r.Err()
}

// marshalElement is marshalElem for a detached element.
func marshalElement(e *Element) []byte {
	b := enc.NewBuffer(64 + len(e.Body))
	encodeDetached(b, e, true)
	return b.Bytes()
}

// unmarshalElement decodes a stand-alone element encoding. Blobs written
// before trace support simply end early and decode as untraced.
func unmarshalElement(data []byte) (Element, error) {
	e, err := decodeDetached(enc.NewReader(data), nil, true)
	if err != nil {
		return Element{}, fmt.Errorf("queue: decode element: %w", err)
	}
	return e, nil
}
