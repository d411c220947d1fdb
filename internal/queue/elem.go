package queue

import (
	"sync/atomic"

	"repro/internal/obs/trace"
	"repro/internal/txn"
)

// elemState tracks an element's transactional visibility.
type elemState int8

const (
	// statePending: enqueued by an uncommitted transaction; invisible.
	statePending elemState = iota
	// stateVisible: committed and available for dequeue.
	stateVisible
	// stateDequeued: removed by an uncommitted transaction; invisible to
	// dequeuers but still present (its committed state is "in the queue").
	stateDequeued
)

// elem is the one resident form of an element on a locked (non-ring)
// queue. The public Element exists only at the repository's boundary:
// fill takes one in, element hands one out. An elem names its queue by
// q alone, keeps its headers packed, links itself into its priority list,
// and keeps what few elements carry behind cold.
//
// All fields except q are guarded by the shard lock of the queue currently
// holding the element; q itself is atomic because error-queue diversion
// moves an element between shards and eid-addressed readers must chase it
// (see lockElem).
type elem struct {
	next, prev *elem // priority-list links (elemList)
	q          atomic.Pointer[queueState]
	owner      *txn.Txn  // while pending or dequeued
	cold       *elemCold // nil until a cold field is set
	eid        EID
	seq        uint64 // fixes FIFO order within a priority; assigned at enqueue
	body       []byte
	headers    packedHeaders
	replyTo    string
	priority   int32
	abortCount int32
	state      elemState
	killed     bool // killed while dequeued; dropped on owner's abort
	linked     bool // in its queue's priority list
	// redelivered: rebuilt from the log or a snapshot, not enqueued in this
	// process lifetime (Element.Redelivered). Never written after that, so
	// the owner of a claimed element may read it outside the shard lock.
	redelivered bool
}

// elemCold is the part of an element most elements leave zero.
type elemCold struct {
	scratchPad []byte
	abortCode  string
	trace      trace.ID
	span       trace.SpanID
	// visibleAt is when (unix ns) the element, if traced, last became
	// visible — enqueue commit, abort return, or recovery — and anchors
	// the start of the queue-residency "dequeue" span.
	visibleAt int64
}

var noCold elemCold

// coldRead returns el's cold fields for reading: the shared zero when it
// has none.
func (el *elem) coldRead() *elemCold {
	if el.cold == nil {
		return &noCold
	}
	return el.cold
}

// coldWrite returns el's cold fields for writing, allocating them.
func (el *elem) coldWrite() *elemCold {
	if el.cold == nil {
		el.cold = new(elemCold)
	}
	return el.cold
}

func (el *elem) traceRef() trace.Ref {
	c := el.coldRead()
	return trace.Ref{Trace: c.trace, Span: c.span}
}

// fill makes el the resident form of e, which crosses into the repository
// here. The headers are packed; Body and ScratchPad are kept when the
// caller gave e up (owned), copied otherwise. eid, seq and the queue are
// the repository's to assign.
func (el *elem) fill(e *Element, owned bool) {
	body, pad := e.Body, e.ScratchPad
	if !owned {
		if body != nil {
			body = append([]byte(nil), body...)
		}
		if len(pad) != 0 {
			pad = append([]byte(nil), pad...)
		}
	}
	el.eid, el.seq = e.EID, e.seq
	el.body = body
	el.headers = packHeaders(e.Headers)
	el.replyTo = e.ReplyTo
	el.priority, el.abortCount = e.Priority, e.AbortCount
	if len(pad) != 0 || e.AbortCode != "" || !e.Trace.IsZero() || e.Span != 0 {
		*el.coldWrite() = elemCold{scratchPad: pad, abortCode: e.AbortCode, trace: e.Trace, span: e.Span}
	}
}

// element materialises el as the public Element: the only way an element
// leaves the repository. The header map is always the caller's own (its
// strings are substrings of the immutable packing); Body and ScratchPad are
// copies unless el is handed over — already out of its queue and the eid
// index, never to be read again.
func (el *elem) element(handOver bool) Element {
	c := el.coldRead()
	e := Element{
		EID:         el.eid,
		Priority:    el.priority,
		Body:        el.body,
		Headers:     el.headers.toMap(),
		ScratchPad:  c.scratchPad,
		ReplyTo:     el.replyTo,
		AbortCount:  el.abortCount,
		AbortCode:   c.abortCode,
		Trace:       c.trace,
		Span:        c.span,
		Redelivered: el.redelivered,
		seq:         el.seq,
	}
	if qs := el.q.Load(); qs != nil {
		e.Queue = qs.name
	}
	if !handOver {
		if e.Body != nil {
			e.Body = append([]byte(nil), e.Body...)
		}
		if e.ScratchPad != nil {
			e.ScratchPad = append([]byte(nil), e.ScratchPad...)
		}
	}
	return e
}

// elemList is one priority's FIFO, linked through the elements themselves.
type elemList struct {
	head, tail *elem
	n          int
}

// insert links el in seq order, searching from the tail: a live enqueue
// carries the highest seq yet, and recovery replays nearly in order.
func (l *elemList) insert(el *elem) {
	at := l.tail
	for at != nil && at.seq > el.seq {
		at = at.prev
	}
	el.prev = at
	if at == nil {
		el.next, l.head = l.head, el
	} else {
		el.next, at.next = at.next, el
	}
	if el.next == nil {
		l.tail = el
	} else {
		el.next.prev = el
	}
	el.linked = true
	l.n++
}

func (l *elemList) remove(el *elem) {
	if el.prev == nil {
		l.head = el.next
	} else {
		el.prev.next = el.next
	}
	if el.next == nil {
		l.tail = el.prev
	} else {
		el.next.prev = el.prev
	}
	el.next, el.prev = nil, nil
	el.linked = false
	l.n--
}
