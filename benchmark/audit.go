package main

import (
	"fmt"
	"sync"
)

// ledger is the exactly-once audit: per rid, how often the request was
// handed to the system, executed by a handler, answered, and (for the
// backlog workloads) found still queued. Rids are dense per client, so
// the ledger is slices, not maps, and costs the hot path one uncontended
// lock.
type ledger struct {
	clients []clientLedger
	mu      sync.Mutex
	foreign int // executions or replies whose rid no client ever sent
}

type clientLedger struct {
	mu      sync.Mutex
	sent    uint64 // rids [0, sent) were acknowledged as submitted
	exec    []uint8
	replies []uint8
	queued  []uint8
}

func newLedger(clients int) *ledger { return &ledger{clients: make([]clientLedger, clients)} }

func bump(s *[]uint8, seq uint64) {
	for uint64(len(*s)) <= seq {
		*s = append(*s, 0)
	}
	if (*s)[seq] < 255 {
		(*s)[seq]++
	}
}

func at(s []uint8, seq uint64) uint8 {
	if seq < uint64(len(s)) {
		return s[seq]
	}
	return 0
}

func (l *ledger) client(ridStr string) (*clientLedger, uint64) {
	c, seq, ok := parseRID(ridStr)
	if !ok || c < 0 || c >= len(l.clients) {
		l.mu.Lock()
		l.foreign++
		l.mu.Unlock()
		return nil, 0
	}
	return &l.clients[c], seq
}

// sent records that rids up to and including seq of client c were
// accepted by the system (Send acked, or the loading transaction
// committed).
func (l *ledger) sent(c int, seq uint64) {
	cl := &l.clients[c]
	cl.mu.Lock()
	if seq+1 > cl.sent {
		cl.sent = seq + 1
	}
	cl.mu.Unlock()
}

func (l *ledger) executed(ridStr string) {
	if cl, seq := l.client(ridStr); cl != nil {
		cl.mu.Lock()
		bump(&cl.exec, seq)
		cl.mu.Unlock()
	}
}

func (l *ledger) replied(ridStr string) {
	if cl, seq := l.client(ridStr); cl != nil {
		cl.mu.Lock()
		bump(&cl.replies, seq)
		cl.mu.Unlock()
	}
}

func (l *ledger) stillQueued(ridStr string) {
	if cl, seq := l.client(ridStr); cl != nil {
		cl.mu.Lock()
		bump(&cl.queued, seq)
		cl.mu.Unlock()
	}
}

// maxReported bounds the violation list; the count is always exact.
const maxReported = 20

type violations struct {
	n    int64
	msgs []string
}

func (v *violations) add(format string, args ...any) { v.addN(1, format, args...) }

// addN records n violations of one kind under one message.
func (v *violations) addN(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	v.n += n
	if len(v.msgs) < maxReported {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

func (v *violations) merge(o violations) {
	v.n += o.n
	v.msgs = append(v.msgs, o.msgs...)
}

// verifyRequests checks the closed-loop contract: every answered rid was
// executed exactly once, no rid was executed twice, and every sent rid
// but a client's last (which may be in flight when the run stops) was
// answered.
func (l *ledger) verifyRequests() violations {
	var v violations
	if l.foreign > 0 {
		v.add("%d executions or replies carried a rid no client sent", l.foreign)
	}
	for c := range l.clients {
		cl := &l.clients[c]
		cl.mu.Lock()
		for seq := uint64(0); seq < cl.sent || seq < uint64(len(cl.exec)); seq++ {
			ex, rep := at(cl.exec, seq), at(cl.replies, seq)
			switch {
			case ex > 1:
				v.add("%s executed %d times", rid(c, seq), ex)
			case rep > 0 && ex != 1:
				v.add("%s answered but executed %d times", rid(c, seq), ex)
			case rep == 0 && seq+1 < cl.sent:
				v.add("%s sent but never answered", rid(c, seq))
			}
		}
		cl.mu.Unlock()
	}
	return v
}

// verifyBacklog checks the capture-then-process contract: every loaded
// rid is in exactly one place (answered or still queued, never both,
// never twice), an answered one was executed exactly once, and none was
// executed twice.
func (l *ledger) verifyBacklog() violations {
	var v violations
	if l.foreign > 0 {
		v.add("%d elements carried a rid no loader sent", l.foreign)
	}
	for c := range l.clients {
		cl := &l.clients[c]
		cl.mu.Lock()
		// A rid that was never acknowledged may be present or absent (the
		// durability audit checks that its transaction is atomic).
		for seq := uint64(0); seq < cl.sent; seq++ {
			ex, rep, q := at(cl.exec, seq), at(cl.replies, seq), at(cl.queued, seq)
			switch {
			case rep+q == 0:
				v.add("%s acked but lost", rid(c, seq))
			case rep+q > 1:
				v.add("%s present %d times (replies %d, queued %d)", rid(c, seq), rep+q, rep, q)
			case ex > 1:
				v.add("%s executed %d times", rid(c, seq), ex)
			case rep == 1 && ex != 1:
				v.add("%s answered but executed %d times", rid(c, seq), ex)
			}
		}
		cl.mu.Unlock()
	}
	return v
}
