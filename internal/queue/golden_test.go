package queue

// One scripted history over every kind of redo record, written through the
// public API only, and three things held to it:
//
//   - the same history writes the same bytes (TestSameHistorySameLogBytes);
//   - a node directory the parent of the packed-headers change wrote with it
//     — testdata/parent-node, WAL segments and a snapshot — opens here to the
//     contents the parent itself recovered (TestOpensParentWrittenNode);
//   - what this tree writes, the map-based reference decoder reads back
//     (TestWrittenElementsDecodeByReference, in headers_test.go).
//
// To regenerate the fixture, copy this file into a checkout of the commit
// whose format is to be pinned and run
//
//	WRITE_GOLDEN_NODE=/abs/path/to/testdata go test ./internal/queue -run '^TestWriteGoldenNode$'

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs/trace"
)

var goldenOpts = Options{Name: "golden", NoFsync: true, SegmentSize: 4 << 10}

// scriptedHistory drives r, fresh, through every logged operation and
// leaves it crashed with one transaction in doubt. Nothing in it depends on
// map order, time or scheduling: a trigger's asynchronous fire is waited
// for before the next operation is issued.
func scriptedHistory(t testing.TB, r *Repository) {
	t.Helper()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	elem := func(headers map[string]string) Element {
		n++
		e := Element{
			Body:     bytes.Repeat([]byte{byte('a' + n%26)}, 20+n*7%150),
			Priority: int32(n % 3),
			ReplyTo:  []string{"", "replies"}[n%2],
			Headers:  headers,
		}
		if n%4 == 0 {
			e.ScratchPad = []byte(fmt.Sprintf("pad%d", n))
			e.Trace = trace.ID{1, byte(n), byte(n >> 8)}
			e.Span = trace.SpanID(n)
		}
		return e
	}
	request := func() map[string]string {
		return map[string]string{"rid": fmt.Sprintf("c%d.%d", n%3, n), "client": "loader0", "kind": "request", "step": strconv.Itoa(n)}
	}
	enq := func(q string, e Element) EID {
		t.Helper()
		eid, err := r.Enqueue(nil, q, e, "", nil)
		must(err)
		return eid
	}

	for _, cfg := range []QueueConfig{
		{Name: "a", ErrorQueue: "a.err", RetryLimit: 2}, {Name: "a.err"}, {Name: "b"},
		{Name: "replies"}, {Name: "tmp"}, {Name: "v", Volatile: true}, {Name: "redir", RedirectTo: "b"},
	} {
		must(r.CreateQueue(cfg))
	}
	ha, _, err := r.Register("a", "clientA", true)
	must(err)
	_, _, err = r.Register("a", "clientB", false)
	must(err)
	hv, _, err := r.Register("b", "visitor", true)
	must(err)

	// Headers of every shape the packing has to carry.
	enq("a", elem(nil))
	enq("a", elem(map[string]string{}))
	enq("a", elem(map[string]string{"only": "one"}))
	enq("a", elem(map[string]string{"": "empty key", "empty value": "", "bin": "\xff\x00\xfe", "z": "last", "m": "middle"}))
	enq("b", elem(map[string]string{"big": string(bytes.Repeat([]byte{'x'}, 300))}))
	var live []EID
	for i := 0; i < 12; i++ {
		live = append(live, enq([]string{"a", "b"}[i%2], elem(request())))
	}
	enq("v", elem(request())) // volatile: the definition is durable, this is not
	enq("redir", elem(request()))

	// Tagged operations: the registration's element copy.
	_, err = ha.Enqueue(nil, elem(request()), []byte("enq-tag"))
	must(err)
	_, err = ha.Dequeue(ctx, nil, DequeueOpts{Tag: []byte("deq-tag")})
	must(err)
	_, err = hv.Enqueue(nil, elem(request()), []byte("hello"))
	must(err)
	must(r.Deregister(hv))

	// Transactions: committed, and aborted until the element is diverted.
	tx := r.Begin()
	_, err = r.Enqueue(tx, "b", elem(request()), "", nil)
	must(err)
	_, err = r.Dequeue(ctx, tx, "a", "", DequeueOpts{})
	must(err)
	must(tx.Commit())
	for i := 0; i < 2; i++ {
		tx = r.Begin()
		_, err = r.Dequeue(ctx, tx, "a", "", DequeueOpts{})
		must(err)
		must(tx.Abort())
	}
	if d, _ := r.Depth("a.err"); d != 1 {
		t.Fatalf("a.err holds %d elements after two aborts, want the diverted one", d)
	}
	killed, err := r.KillElement(live[5])
	must(err)
	if !killed {
		t.Fatalf("element %d was not there to kill", live[5])
	}

	for i := 0; i < 4; i++ {
		must(r.KVSet(ctx, nil, "accounts", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))))
	}
	must(r.KVDelete(ctx, nil, "accounts", "k1"))
	must(r.UpdateQueueConfig(QueueConfig{Name: "b", AlertThreshold: 1000}))
	must(r.StopQueue("b"))
	enq("b", elem(request()))
	must(r.StartQueue("b"))
	enq("tmp", elem(request()))
	must(r.DestroyQueue("tmp"))

	must(r.Checkpoint()) // what follows is in the log only
	_, err = ha.Dequeue(ctx, nil, DequeueOpts{Tag: []byte("deq-tag-2")})
	must(err)

	// A trigger that fires: wait for its element before going on.
	db, _ := r.Depth("b")
	dr, _ := r.Depth("replies")
	fire := elem(map[string]string{"kind": "joined"})
	fire.Queue = "replies"
	must(r.CreateTrigger("join", "b", int32(db+2), fire))
	enq("b", elem(request()))
	enq("b", elem(request()))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if d, _ := r.Depth("replies"); d == dr+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the trigger never fired")
		}
	}
	waiting := elem(map[string]string{"kind": "never"})
	waiting.Queue = "a"
	must(r.CreateTrigger("waiting", "b", 1<<20, waiting))

	// Two-phase commit: one decided, one left in doubt by the crash.
	for i, registrant := range []string{"", "clientA"} {
		tx = r.Begin()
		_, err = r.Enqueue(tx, "a", elem(request()), registrant, []byte("2pc"))
		must(err)
		_, err = r.Dequeue(ctx, tx, "b", "", DequeueOpts{})
		must(err)
		must(tx.Prepare(fmt.Sprintf("coord/%d", i)))
		if i == 0 {
			must(tx.CommitPrepared())
		}
	}
	for i := 0; i < 60; i++ { // enough to roll the log over a few segments
		enq([]string{"a", "b"}[i%2], elem(request()))
	}
	r.Crash()
}

// nodeContents is what a recovered node holds, as the public API shows it,
// in a form that survives JSON: bytes and header strings are quoted, since
// neither need be UTF-8.
type nodeContents struct {
	Queues   map[string]goldenQueue
	Regs     map[string]goldenReg
	KV       map[string]string
	Triggers []string
	InDoubt  []string
}

type goldenQueue struct {
	Config QueueConfig
	Depth  int
	Elems  []goldenElem
}

type goldenElem struct {
	EID, Seq                  uint64
	Queue, ReplyTo, AbortCode string
	Priority, AbortCount      int32
	Body, ScratchPad, Trace   string
	Span                      uint64
	Headers                   map[string]string
	Redelivered               bool
}

type goldenReg struct {
	Info     RegInfo
	LastElem *goldenElem
}

func goldenOf(e Element) goldenElem {
	g := goldenElem{
		EID: uint64(e.EID), Seq: e.Seq(), Queue: e.Queue, ReplyTo: e.ReplyTo, AbortCode: e.AbortCode,
		Priority: e.Priority, AbortCount: e.AbortCount,
		Body: strconv.Quote(string(e.Body)), ScratchPad: strconv.Quote(string(e.ScratchPad)),
		Trace: strconv.Quote(string(e.Trace[:])), Span: uint64(e.Span), Redelivered: e.Redelivered,
		Headers: map[string]string{},
	}
	for k, v := range e.Headers {
		g.Headers[strconv.Quote(k)] = strconv.Quote(v)
	}
	return g
}

// openGolden opens a node directory scriptedHistory left, commits what the
// crash left in doubt, and describes the result.
func openGolden(t testing.TB, dir string) nodeContents {
	t.Helper()
	r, inDoubt, err := Open(dir, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	c := nodeContents{Queues: map[string]goldenQueue{}, Regs: map[string]goldenReg{}, KV: map[string]string{}}
	for _, p := range inDoubt {
		c.InDoubt = append(c.InDoubt, fmt.Sprintf("%s txn %d", p.Coordinator, p.Txn.ID()))
		if err := p.Txn.CommitPrepared(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range r.Queues() {
		var q goldenQueue
		q.Config, _ = r.Config(name)
		q.Depth, _ = r.Depth(name)
		els, err := r.ListElements(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range els {
			q.Elems = append(q.Elems, goldenOf(e))
			// Read is the other way out, by eid: it must agree.
			if got, err := r.Read(e.EID); err != nil || !jsonEqual(goldenOf(got), goldenOf(e)) {
				t.Fatalf("Read(%d) = %+v, %v; ListElements says %+v", e.EID, got, err, e)
			}
		}
		c.Queues[name] = q
	}
	for _, k := range []regKey{{"a", "clientA"}, {"a", "clientB"}, {"b", "visitor"}} {
		h := r.HandleFor(k.queue, k.registrant)
		info, err := h.Info()
		if err != nil {
			continue // deregistered
		}
		g := goldenReg{Info: info}
		if e, err := h.ReadLast(); err == nil {
			ge := goldenOf(e)
			g.LastElem = &ge
		}
		c.Regs[k.queue+"/"+k.registrant] = g
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if v, ok, _ := r.KVGet(context.Background(), nil, "accounts", key, false); ok {
			c.KV[key] = string(v)
		}
	}
	c.Triggers = r.Triggers()
	sort.Strings(c.Triggers)
	return c
}

func jsonEqual(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// TestWriteGoldenNode regenerates testdata/parent-node and its contents
// file; see the top of this file. It does nothing in a normal run.
func TestWriteGoldenNode(t *testing.T) {
	out := os.Getenv("WRITE_GOLDEN_NODE")
	if out == "" {
		t.Skip("WRITE_GOLDEN_NODE is not set")
	}
	dir := filepath.Join(out, "parent-node")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	r, _, err := Open(dir, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	scriptedHistory(t, r)
	// Describe a copy: opening writes (the in-doubt decisions, a new segment).
	scratch := t.TempDir()
	copyTree(t, dir, scratch)
	js, err := json.MarshalIndent(openGolden(t, scratch), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "parent-node.json"), append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpensParentWrittenNode: old bytes decode unchanged. The fixture was
// written by the commit before headers were packed — its header pairs are
// in whatever order that run's map iteration took — and it must recover to
// exactly what that commit recovered from it.
func TestOpensParentWrittenNode(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent-node.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent-node"), dir)
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg")); len(segs) < 2 {
		t.Fatalf("the fixture has %d log segments, want several", len(segs))
	}
	if snaps, _ := os.ReadDir(filepath.Join(dir, "snap")); len(snaps) == 0 {
		t.Fatal("the fixture has no snapshot")
	}
	got := openGolden(t, dir)
	if len(got.InDoubt) != 1 || len(got.Queues) != 6 || len(got.Queues["a"].Elems) < 10 || got.Regs["a/clientA"].LastElem == nil {
		t.Fatalf("the fixture recovered to less than the history wrote: %+v", got)
	}
	js, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if js = append(js, '\n'); !bytes.Equal(js, want) {
		path := filepath.Join(t.TempDir(), "got.json")
		os.WriteFile(path, js, 0o644)
		t.Fatalf("the parent-written node recovered to different contents: diff %s testdata/parent-node.json", path)
	}
}

// nodeFiles reads every file under dir, keyed by relative path.
func nodeFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSameHistorySameLogBytes: a history is its bytes. Two repositories
// driven through the same operations hold byte-identical log segments and
// snapshots — which they did not while headers were encoded in map order.
func TestSameHistorySameLogBytes(t *testing.T) {
	var runs [2]map[string][]byte
	for i := range runs {
		dir := t.TempDir()
		r, _, err := Open(dir, goldenOpts)
		if err != nil {
			t.Fatal(err)
		}
		scriptedHistory(t, r)
		runs[i] = nodeFiles(t, dir)
	}
	segs, snaps := 0, 0
	for name, a := range runs[0] {
		b, ok := runs[1][name]
		if !ok {
			t.Fatalf("%s exists in one run only", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two runs of one history (%d B, %d B)", name, len(a), len(b))
		}
		switch filepath.Dir(name) {
		case "wal":
			segs++
		case "snap":
			snaps++
		}
	}
	if len(runs[1]) != len(runs[0]) || segs < 3 || snaps == 0 {
		t.Fatalf("compared %d log segments and %d snapshots of %d and %d files", segs, snaps, len(runs[0]), len(runs[1]))
	}
}
