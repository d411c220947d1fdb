// Package core implements the paper's request-processing protocols: the
// Client Model (Section 3, figs. 1–2), the clerk and server of the System
// Model (Section 5, figs. 4–5), multi-transaction request pipelines
// (Section 6, fig. 6), request cancellation (Section 7), and interactive
// requests (Section 8, fig. 7).
package core

import (
	"fmt"
	"strconv"

	"repro/internal/queue"
)

// Header keys used on queue elements to carry protocol metadata.
const (
	hdrRID    = "rid"    // request id, chosen by the client
	hdrClient = "client" // client id (diagnostics)
	hdrKind   = "kind"   // message kind
	hdrStatus = "status" // reply status
	hdrStep   = "step"   // pipeline / conversation step index
	hdrConv   = "conv"   // base rid of an interactive conversation
)

// Message kinds.
const (
	kindRequest = "req"
	kindReply   = "reply"
	kindInterm  = "iout" // intermediate output of an interactive request
)

// Reply statuses. A failed attempt still produces a committed reply — "the
// reply is a promise that it will not attempt to execute the request any
// more" (Section 3).
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// Request is a client request as seen by a server handler.
type Request struct {
	// RID is the client-assigned request id.
	RID string
	// ClientID identifies the submitting client.
	ClientID string
	// Body is the application payload.
	Body []byte
	// Headers are the application's extra headers (protocol keys removed).
	Headers map[string]string
	// ReplyTo is the client's private reply queue (Section 5's
	// multiple-client extension).
	ReplyTo string
	// ScratchPad carries state between the transactions of a
	// multi-transaction request (Section 6; IMS scratch pad, Section 9).
	ScratchPad []byte
	// Step is the pipeline stage or conversation round index.
	Step int
	// EID is the underlying queue element id (for cancellation).
	EID queue.EID
}

// Reply is what a client receives for a request.
type Reply struct {
	// RID echoes the request id (Request-Reply Matching, Section 3).
	RID string
	// Status is StatusOK or StatusError.
	Status string
	// Body is the application reply payload (or the error description).
	Body []byte
	// Intermediate reports that this is intermediate output of an
	// interactive request, not the final reply (Section 8).
	Intermediate bool
	// ScratchPad carries conversation state in pseudo-conversational mode.
	ScratchPad []byte
	// Step is the conversation round that produced an intermediate output.
	Step int
	// EID is the underlying queue element id.
	EID queue.EID
}

// IsError reports whether the reply records a failed execution attempt.
func (r *Reply) IsError() bool { return r.Status == StatusError }

// NewRequestElement builds a request element for direct enqueueing —
// batch input captures requests this way without a clerk (Section 1:
// "requests can be captured reliably in a queue, and processed later in a
// batch"). replyTo may be empty for requests that need no reply.
func NewRequestElement(rid, clientID, replyTo string, body []byte, headers map[string]string) queue.Element {
	return requestElement(rid, clientID, replyTo, body, headers, nil, 0)
}

// ParseRequest interprets a dequeued element as a request — for servers
// written outside the Server framework.
func ParseRequest(e *queue.Element) (Request, error) { return parseRequest(e) }

// NewReplyElement builds a reply element for a request — for servers
// written outside the Server framework.
func NewReplyElement(rid, status string, body []byte) queue.Element {
	return replyElement(rid, status, body, false, nil, 0)
}

// requestElement builds the queue element for a request.
func requestElement(rid, clientID, replyTo string, body []byte, headers map[string]string, scratch []byte, step int) queue.Element {
	h := make(map[string]string, len(headers)+4)
	for k, v := range headers {
		h[k] = v
	}
	h[hdrRID] = rid
	h[hdrClient] = clientID
	h[hdrKind] = kindRequest
	if step != 0 {
		h[hdrStep] = strconv.Itoa(step)
	}
	return queue.Element{
		Body:       body,
		Headers:    h,
		ReplyTo:    replyTo,
		ScratchPad: scratch,
	}
}

// parseRequest interprets a dequeued element as a request.
func parseRequest(e *queue.Element) (Request, error) {
	if e.Headers[hdrKind] != kindRequest {
		return Request{}, fmt.Errorf("core: element %d is %q, not a request", e.EID, e.Headers[hdrKind])
	}
	req := Request{
		RID:        e.Headers[hdrRID],
		ClientID:   e.Headers[hdrClient],
		Body:       e.Body,
		ReplyTo:    e.ReplyTo,
		ScratchPad: e.ScratchPad,
		EID:        e.EID,
	}
	if s := e.Headers[hdrStep]; s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return Request{}, fmt.Errorf("core: bad step %q on element %d", s, e.EID)
		}
		req.Step = n
	}
	req.Headers = make(map[string]string)
	for k, v := range e.Headers {
		switch k {
		case hdrRID, hdrClient, hdrKind, hdrStatus, hdrStep, hdrConv:
		default:
			req.Headers[k] = v
		}
	}
	return req, nil
}

// replyElement builds the queue element for a reply (final or
// intermediate).
func replyElement(rid, status string, body []byte, intermediate bool, scratch []byte, step int) queue.Element {
	h := map[string]string{
		hdrRID:    rid,
		hdrStatus: status,
	}
	if intermediate {
		h[hdrKind] = kindInterm
		h[hdrStep] = strconv.Itoa(step)
	} else {
		h[hdrKind] = kindReply
	}
	return queue.Element{Body: body, Headers: h, ScratchPad: scratch}
}

// parseReply interprets a dequeued element as a reply.
func parseReply(e *queue.Element) (Reply, error) {
	kind := e.Headers[hdrKind]
	if kind != kindReply && kind != kindInterm {
		return Reply{}, fmt.Errorf("core: element %d is %q, not a reply", e.EID, kind)
	}
	rep := Reply{
		RID:          e.Headers[hdrRID],
		Status:       e.Headers[hdrStatus],
		Body:         e.Body,
		Intermediate: kind == kindInterm,
		ScratchPad:   e.ScratchPad,
		EID:          e.EID,
	}
	if s := e.Headers[hdrStep]; s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return Reply{}, fmt.Errorf("core: bad step %q on element %d", s, e.EID)
		}
		rep.Step = n
	}
	if rep.Status == "" {
		rep.Status = StatusOK
	}
	return rep, nil
}
