package qservice

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/enc"
	"repro/internal/queue"
)

// transceiveWorld is a world with a request queue, a reply queue and one
// stable registrant on both — what a connected clerk has.
func transceiveWorld(t testing.TB) (*Service, *queue.Repository) {
	t.Helper()
	repo, _, err := queue.Open(t.TempDir(), queue.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	for _, q := range []string{"req", "rep"} {
		if err := repo.CreateQueue(queue.QueueConfig{Name: q}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := repo.Register(q, "c1", true); err != nil {
			t.Fatal(err)
		}
	}
	return &Service{repo: repo}, repo
}

// TestRemoteTransceiveStages: the response reports the enqueue and the
// dequeue separately, and the caller can tell the three outcomes apart.
func TestRemoteTransceiveStages(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	for _, q := range []string{"req", "rep"} {
		if err := w.cl.CreateQueue(ctx, queue.QueueConfig{Name: q}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.cl.Register(ctx, q, "c1", true); err != nil {
			t.Fatal(err)
		}
	}
	req := queue.Element{Body: []byte("request"), Headers: map[string]string{"rid": "r1"}}

	// Stored, and a reply is there.
	if _, err := w.cl.Enqueue(ctx, "rep", queue.Element{Body: []byte("reply")}, "", nil); err != nil {
		t.Fatal(err)
	}
	eid, rep, err := w.cl.Transceive(ctx, "req", req, "rep", "c1", []byte("r1"), []byte("tag1"), 0, nil)
	if err != nil || eid == 0 || string(rep.Body) != "reply" {
		t.Fatalf("both stages: eid %d reply %+v err %v", eid, rep, err)
	}
	got, err := w.cl.Dequeue(ctx, "req", "", nil, 0, nil)
	if err != nil || got.EID != eid || string(got.Body) != "request" || got.Headers["rid"] != "r1" {
		t.Fatalf("stored request: %+v, %v", got, err)
	}
	reqInfo, _ := w.repo.HandleFor("req", "c1").Info()
	repInfo, _ := w.repo.HandleFor("rep", "c1").Info()
	if reqInfo.LastOp != queue.OpEnqueue || string(reqInfo.LastTag) != "r1" || reqInfo.LastEID != eid ||
		repInfo.LastOp != queue.OpDequeue || string(repInfo.LastTag) != "tag1" || repInfo.LastEID != rep.EID {
		t.Fatalf("registration tags: req %+v rep %+v", reqInfo, repInfo)
	}

	// Stored, no reply within the (sub-millisecond, so rounded-up) wait.
	start := time.Now()
	eid, _, err = w.cl.Transceive(ctx, "req", req, "rep", "c1", []byte("r2"), []byte("tag2"), 500*time.Microsecond, nil)
	if eid == 0 || !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("stored but unanswered: eid %d err %v", eid, err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("a 500µs wait did not wait")
	}
	repInfo, _ = w.repo.HandleFor("rep", "c1").Info()
	if string(repInfo.LastTag) != "tag1" {
		t.Fatalf("an empty dequeue moved the reply tag to %q", repInfo.LastTag)
	}

	// Not stored: the dequeue stage does not run.
	if _, err := w.cl.Enqueue(ctx, "rep", queue.Element{Body: []byte("must stay")}, "", nil); err != nil {
		t.Fatal(err)
	}
	eid, _, err = w.cl.Transceive(ctx, "nope", req, "rep", "c1", []byte("r3"), []byte("tag3"), 0, nil)
	if eid != 0 || !errors.Is(err, queue.ErrNoQueue) {
		t.Fatalf("enqueue into a missing queue: eid %d err %v", eid, err)
	}
	if d, _ := w.repo.Depth("rep"); d != 1 {
		t.Fatalf("reply queue depth %d: the dequeue ran after a failed enqueue", d)
	}
}

// FuzzTransceiveRequest feeds arbitrary bytes to the qm.transceive handler:
// it never panics, and whatever it answers parses as the two-stage response
// — an enqueue status with its eid, then a dequeue status with its element
// exactly when the enqueue succeeded.
func FuzzTransceiveRequest(f *testing.F) {
	valid := enc.NewBuffer(128)
	e := queue.Element{Body: []byte("body"), Headers: map[string]string{"rid": "r1", "kind": "req"}, ReplyTo: "rep"}
	encodeEnqueue(valid, "req", &e, "c1", []byte("r1"))
	encodeDequeue(valid, "rep", "c1", []byte("tag"), 0, map[string]string{"rid": "r1"}, "")
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	noQueue := enc.NewBuffer(64)
	encodeEnqueue(noQueue, "missing", &e, "", nil)
	encodeDequeue(noQueue, "rep", "", nil, time.Hour, nil, "amount")
	f.Add(noQueue.Bytes())
	f.Add([]byte{})

	s, _ := transceiveWorld(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		// A fuzzed wait may be hours; the caller's budget is not.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		out, err := s.handleTransceive(ctx, p)
		if err != nil {
			return // a request that does not decode is refused whole
		}
		r := enc.NewReader(out)
		if readStatus(r) != nil {
			if r.Err() != nil || r.Remaining() != 0 {
				t.Fatalf("failed enqueue stage followed by %d bytes (err %v)", r.Remaining(), r.Err())
			}
			return
		}
		if eid := r.Uvarint(); eid == 0 || r.Err() != nil {
			t.Fatalf("stored with eid %d (err %v)", eid, r.Err())
		}
		if readStatus(r) == nil {
			readWireElement(r, nil)
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("dequeue stage: %v", err)
		}
	})
}
