package queue

// The recovery equivalence oracle. openSequential recovers a directory the
// way recovery worked before it became a pipeline — read the whole log
// with ReadFrom, then Redo one operation at a time on one goroutine — and
// the tests below hold the pipelined Open to producing the very same
// repository from generated histories.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/enc"
	"repro/internal/obs/trace"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The transaction manager's record types and framing, which it keeps
// private: the reference reads them itself.
const (
	refCommit   = 1
	refPrepare  = 2
	refDecision = 3
)

type refPrepared struct {
	id          uint64
	coordinator string
	ops         [][]byte
}

func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// openSequential recovers a copy of dir by the reference path: the
// snapshot through Open (over an empty log), then the log through
// ReadFrom and redo, one operation at a time. Undecided prepares are
// returned, not reinstated.
func openSequential(t testing.TB, dir string, opts Options, redo func(r *Repository, op []byte) error) (*Repository, []refPrepared, int, error) {
	t.Helper()
	ref := t.TempDir()
	copyTree(t, dir, ref)
	if err := os.Rename(filepath.Join(ref, "wal"), filepath.Join(ref, "wal.orig")); err != nil {
		t.Fatal(err)
	}
	r, _, err := Open(ref, opts)
	if err != nil {
		t.Fatalf("reference: open snapshot: %v", err)
	}
	t.Cleanup(r.Crash)
	var snapLSN wal.LSN
	switch _, lsn, err := r.snap.Load(); err {
	case nil:
		snapLSN = wal.LSN(lsn)
	case storage.ErrNoSnapshot:
	default:
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(ref, "wal.orig"), wal.Options{NoFsync: true, SegmentSize: opts.SegmentSize})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := l.ReadFrom(1)
	l.Close()
	if err != nil {
		t.Fatal(err)
	}

	readOps := func(rd *enc.Reader) (id uint64, ops [][]byte) {
		id = rd.Uvarint()
		for n := rd.Uvarint(); n > 0 && rd.Err() == nil; n-- {
			if rm := rd.String(); rm != rmName && rd.Err() == nil {
				t.Fatalf("reference: op of resource manager %q", rm)
			}
			ops = append(ops, rd.BytesField())
		}
		if err := rd.Err(); err != nil {
			t.Fatalf("reference: decode ops: %v", err)
		}
		return id, ops
	}
	redos := 0
	apply := func(ops [][]byte) error {
		for _, op := range ops {
			redos++
			if err := redo(r, op); err != nil {
				return err
			}
		}
		return nil
	}
	pending := make(map[uint64]*refPrepared)
	var order []uint64
	maxID := uint64(0)
	for _, rec := range recs {
		rd := enc.NewReader(rec.Payload)
		switch rec.Type {
		case refCommit:
			id, ops := readOps(rd)
			if id > maxID {
				maxID = id
			}
			if rec.LSN <= snapLSN {
				continue
			}
			if err := apply(ops); err != nil {
				return nil, nil, redos, err
			}
		case refPrepare:
			coord := rd.String()
			id, ops := readOps(rd)
			if id > maxID {
				maxID = id
			}
			pending[id] = &refPrepared{id: id, coordinator: coord, ops: ops}
			order = append(order, id)
		case refDecision:
			id := rd.Uvarint()
			commit := rd.Bool()
			p, ok := pending[id]
			if !ok {
				continue
			}
			delete(pending, id)
			if commit && rec.LSN > snapLSN {
				if err := apply(p.ops); err != nil {
					return nil, nil, redos, err
				}
			}
		}
	}
	r.tm.SetNextID(maxID + 1)
	var inDoubt []refPrepared
	for _, id := range order {
		if p, ok := pending[id]; ok {
			inDoubt = append(inDoubt, *p)
		}
	}
	return r, inDoubt, redos, nil
}

// repoDump is everything recovery rebuilds, in a form DeepEqual can
// compare: the registrations' stand-alone element copies are decoded
// (their header order is not canonical), everything else is as stored.
type repoDump struct {
	Queues   map[string]queueDump
	Regs     map[regKey]regDump
	Triggers map[string]trigger
	Tables   map[string]map[string][]byte
	NextEID  uint64
	NextSeq  uint64
	NextTxn  uint64
}

type queueDump struct {
	Config  QueueConfig
	Stopped bool
	Stats   QueueStats
	Elems   []elemDump // in dequeue order
}

type elemDump struct {
	E     Element
	State elemState
}

type regDump struct {
	Stable, HasLast bool
	LastOp          OpType
	LastEID         EID
	LastTag         []byte
	LastElem        *Element
}

func dumpRepo(t testing.TB, r *Repository) repoDump {
	t.Helper()
	d := repoDump{
		Queues:   make(map[string]queueDump),
		Regs:     make(map[regKey]regDump),
		Triggers: make(map[string]trigger),
		Tables:   r.tables,
		NextEID:  r.nextEID.Load(),
		NextSeq:  r.nextSeq.Load(),
		NextTxn:  r.tm.NextID(),
	}
	for name, qs := range r.queues {
		q := queueDump{Config: qs.cfg, Stopped: qs.stopped, Stats: qs.stats}
		for _, prio := range qs.prios {
			for el := qs.lists[prio].head; el != nil; el = el.next {
				if got, ok := r.elems.get(el.eid); !ok || got != el {
					t.Fatalf("element %d of %s is not in the eid index", el.eid, name)
				}
				q.Elems = append(q.Elems, elemDump{E: el.element(false), State: el.state})
			}
		}
		d.Queues[name] = q
	}
	for k, g := range r.regs {
		rd := regDump{Stable: g.stable, HasLast: g.hasLast, LastOp: g.lastOp, LastEID: g.lastEID, LastTag: g.lastTag}
		if len(g.lastElem) > 0 { // a snapshot reloads "none" as empty
			e, err := unmarshalElement(g.lastElem)
			if err != nil {
				t.Fatalf("registration %v: %v", k, err)
			}
			rd.LastElem = &e
		}
		d.Regs[k] = rd
	}
	for id, tr := range r.triggers {
		d.Triggers[id] = *tr
	}
	return d
}

// sameRepo fails the test with the first difference it finds.
func sameRepo(t testing.TB, what string, got, want repoDump) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for name, w := range want.Queues {
		g, ok := got.Queues[name]
		if !ok {
			t.Fatalf("%s: queue %s is missing", what, name)
		}
		if g.Config != w.Config || g.Stopped != w.Stopped || g.Stats != w.Stats {
			t.Fatalf("%s: queue %s is %+v stopped=%v %+v, want %+v stopped=%v %+v", what, name,
				g.Config, g.Stopped, g.Stats, w.Config, w.Stopped, w.Stats)
		}
		if len(g.Elems) != len(w.Elems) {
			t.Fatalf("%s: queue %s holds %d elements, want %d", what, name, len(g.Elems), len(w.Elems))
		}
		for i := range w.Elems {
			if !reflect.DeepEqual(g.Elems[i], w.Elems[i]) {
				t.Fatalf("%s: queue %s element %d is\n%+v\nwant\n%+v", what, name, i, g.Elems[i], w.Elems[i])
			}
		}
	}
	for k, w := range want.Regs {
		if g := got.Regs[k]; !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: registration %v is\n%+v (%+v)\nwant\n%+v (%+v)", what, k, g, g.LastElem, w, w.LastElem)
		}
	}
	got.Queues, want.Queues, got.Regs, want.Regs = nil, nil, nil, nil
	t.Fatalf("%s: repositories differ:\n%+v\nwant\n%+v", what, got, want)
}

// history drives a repository through every kind of logged operation.
type history struct {
	t    testing.TB
	r    *Repository
	rng  *rand.Rand
	live []EID // elements of a and b that may still be there
	n    int
}

func (h *history) elem() Element {
	h.n++
	e := Element{
		Body:     bytes.Repeat([]byte{byte('a' + h.n%26)}, 10+h.rng.Intn(190)),
		Priority: int32(h.rng.Intn(3)),
		ReplyTo:  []string{"", "replies"}[h.rng.Intn(2)],
		Headers:  map[string]string{"rid": fmt.Sprintf("c%d.%d", h.n%3, h.n), "kind": "request"},
	}
	switch h.rng.Intn(4) {
	case 0:
		e.Headers = nil
	case 1:
		e.ScratchPad = []byte(fmt.Sprintf("pad%d", h.n))
		e.Trace = trace.ID{1, byte(h.n), byte(h.n >> 8)}
		e.Span = trace.SpanID(h.n)
	}
	return e
}

func (h *history) queue() string { return []string{"a", "b"}[h.rng.Intn(2)] }

func (h *history) must(err error) {
	h.t.Helper()
	if err != nil && !errors.Is(err, ErrEmpty) && !errors.Is(err, ErrStopped) {
		h.t.Fatal(err)
	}
}

func (h *history) enqueue(tx *txn.Txn) {
	q, registrant, tag := h.queue(), "", []byte(nil)
	if q == "a" && h.rng.Intn(3) == 0 {
		registrant, tag = "clientA", []byte(fmt.Sprintf("enq-tag-%d", h.n))
	}
	eid, err := h.r.Enqueue(tx, q, h.elem(), registrant, tag)
	h.must(err)
	h.live = append(h.live, eid)
}

func (h *history) dequeue(tx *txn.Txn) {
	q, registrant, opts := h.queue(), "", DequeueOpts{}
	if q == "a" && h.rng.Intn(3) == 0 {
		registrant, opts.Tag = "clientA", []byte(fmt.Sprintf("deq-tag-%d", h.n))
	}
	_, err := h.r.Dequeue(context.Background(), tx, q, registrant, opts)
	h.must(err)
}

func (h *history) step() {
	r, ctx := h.r, context.Background()
	switch k := h.rng.Intn(100); {
	case k < 30:
		h.enqueue(nil)
	case k < 45:
		h.dequeue(nil)
	case k < 60: // a transaction of several operations, committed or aborted
		tx := r.Begin()
		for i := h.rng.Intn(4) + 1; i > 0; i-- {
			if h.rng.Intn(3) == 0 {
				h.dequeue(tx)
			} else {
				h.enqueue(tx)
			}
		}
		if h.rng.Intn(4) == 0 {
			h.must(tx.Abort()) // dequeued elements return, counted; the third time, to a.err
		} else {
			h.must(tx.Commit())
		}
	case k < 68: // a dequeuer that fails: the abort-return and, past the retry limit, the diversion
		tx := r.Begin()
		_, err := r.Dequeue(ctx, tx, "a", "", DequeueOpts{})
		h.must(err)
		h.must(tx.Abort())
	case k < 74:
		if len(h.live) > 0 {
			i := h.rng.Intn(len(h.live))
			_, err := r.KillElement(h.live[i])
			h.must(err)
			h.live = append(h.live[:i], h.live[i+1:]...)
		}
	case k < 82:
		key := fmt.Sprintf("k%d", h.rng.Intn(8))
		if h.rng.Intn(3) == 0 {
			h.must(r.KVDelete(ctx, nil, "accounts", key))
		} else {
			h.must(r.KVSet(ctx, nil, "accounts", key, []byte(fmt.Sprintf("v%d", h.n))))
		}
	case k < 86:
		h.must(r.CreateQueue(QueueConfig{Name: "tmp"}))
		_, err := r.Enqueue(nil, "tmp", h.elem(), "", nil)
		h.must(err)
		h.must(r.DestroyQueue("tmp"))
	case k < 89:
		h.must(r.UpdateQueueConfig(QueueConfig{Name: "b", AlertThreshold: int32(1000 + h.rng.Intn(5))}))
	case k < 92:
		h.must(r.StopQueue("b"))
		h.enqueue(nil)
		h.must(r.StartQueue("b"))
	case k < 95:
		d, _ := r.Depth("b")
		fire := h.elem()
		fire.Queue = "a"
		h.must(r.CreateTrigger(fmt.Sprintf("trig%d", h.n), "b", int32(d+1+h.rng.Intn(3)), fire))
	case k < 97:
		hd, _, err := r.Register("b", "visitor", true)
		h.must(err)
		_, err = r.Enqueue(nil, "b", h.elem(), "visitor", []byte("hello"))
		h.must(err)
		h.must(r.Deregister(hd))
	default: // two-phase commit, decided
		tx := r.Begin()
		h.enqueue(tx)
		h.dequeue(tx)
		h.must(tx.Prepare(fmt.Sprintf("coord/%d", h.n)))
		if h.rng.Intn(2) == 0 {
			h.must(tx.CommitPrepared())
		} else {
			h.must(tx.AbortPrepared())
		}
	}
}

type historyShape struct {
	checkpoint bool // a checkpoint, and the truncation it allows, part way
	gap        bool // a corrupt frame mid-log: the rest of its segment is lost
}

// writeHistory fills dir with the log (and perhaps a snapshot) of a random
// history that ends in a crash with two transactions in doubt and a torn
// tail. It returns how many segments the log spans.
func writeHistory(t testing.TB, dir string, opts Options, seed int64, shape historyShape) int {
	t.Helper()
	r, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := &history{t: t, r: r, rng: rand.New(rand.NewSource(seed))}
	for _, cfg := range []QueueConfig{{Name: "a", ErrorQueue: "a.err", RetryLimit: 2}, {Name: "a.err"}, {Name: "b"}, {Name: "filler"}, {Name: "replies"}} {
		h.must(r.CreateQueue(cfg))
	}
	_, _, err = r.Register("a", "clientA", true)
	h.must(err)
	_, _, err = r.Register("a", "clientB", false)
	h.must(err)
	for i := 0; i < 300; i++ {
		h.step()
	}
	if shape.checkpoint {
		h.must(r.Checkpoint())
	}
	// A stretch of the log that nothing later depends on, more than two
	// segments long: where the gap goes. A trigger fires on a goroutine of
	// its own, so one may still be on its way to the log: let it land first,
	// or its element is lost with the gap and a later dequeue of it (seen
	// about one run in ten) cannot be replayed.
	for quiet, last := 0, r.log.LastLSN(); quiet < 5; time.Sleep(2 * time.Millisecond) {
		if now := r.log.LastLSN(); now != last {
			quiet, last = 0, now
		} else {
			quiet++
		}
	}
	fillerFirst := r.log.NextLSN()
	for i := 0; i < 3*int(opts.SegmentSize)/200; i++ {
		_, err := r.Enqueue(nil, "filler", Element{Body: bytes.Repeat([]byte{'f'}, 180)}, "", nil)
		h.must(err)
	}
	fillerLast := r.log.LastLSN()
	for i := 0; i < 300; i++ {
		h.step()
	}
	// A trigger still waiting at the crash.
	waiting := h.elem()
	waiting.Queue = "a"
	h.must(r.CreateTrigger("waiting", "b", 1<<20, waiting))
	// Two transactions the crash leaves in doubt: one tagged.
	for i, registrant := range []string{"", "clientA"} {
		tx := r.Begin()
		_, err := r.Enqueue(tx, "a", h.elem(), registrant, []byte("in-doubt"))
		h.must(err)
		if _, err = r.Dequeue(context.Background(), tx, "b", "", DequeueOpts{}); errors.Is(err, ErrEmpty) {
			t.Fatal("queue b ran empty: the in-doubt dequeue has nothing to hold")
		}
		h.must(err)
		h.must(tx.Prepare(fmt.Sprintf("coord/left-%d", i)))
	}
	h.enqueue(nil) // the log goes on after the prepares
	r.Crash()

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	tail, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail.Write([]byte("a frame the crash tore: \x00\x01\x02\x03"))
	tail.Close()
	if shape.gap {
		broke := false
		for i := 0; i+1 < len(segs) && !broke; i++ {
			var first, next uint64
			fmt.Sscanf(filepath.Base(segs[i]), "wal-%x.seg", &first)
			fmt.Sscanf(filepath.Base(segs[i+1]), "wal-%x.seg", &next)
			if wal.LSN(first) > fillerFirst && wal.LSN(next) <= fillerLast {
				b, err := os.ReadFile(segs[i])
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0xff
				if err := os.WriteFile(segs[i], b, 0o644); err != nil {
					t.Fatal(err)
				}
				broke = true
			}
		}
		if !broke {
			t.Fatal("no segment lies wholly inside the filler stretch")
		}
	}
	return len(segs)
}

func TestRecoveryMatchesSequentialReplay(t *testing.T) {
	opts := Options{NoFsync: true, SegmentSize: 4 << 10}
	for seed := int64(1); seed <= 3; seed++ {
		for _, shape := range []historyShape{{}, {checkpoint: true}, {gap: true}, {checkpoint: true, gap: true}} {
			what := fmt.Sprintf("seed %d %+v", seed, shape)
			dir := t.TempDir()
			if n := writeHistory(t, dir, opts, seed, shape); n < 4 {
				t.Fatalf("%s: the log spans %d segments, want at least 4", what, n)
			}
			ref, refInDoubt, redos, err := openSequential(t, dir, opts, (*Repository).Redo)
			if err != nil {
				t.Fatalf("%s: reference replay: %v", what, err)
			}
			if redos < 300 {
				t.Fatalf("%s: the reference replayed only %d operations", what, redos)
			}
			got, inDoubt, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("%s: pipelined recovery: %v", what, err)
			}
			defer got.Crash()
			if got.recovery.Records == 0 || got.recovery.PeakInFlight == 0 {
				t.Fatalf("%s: recovery accounts for nothing: %+v", what, got.recovery)
			}

			// The same transactions are in doubt, in the same order...
			if len(inDoubt) != 2 || len(refInDoubt) != 2 {
				t.Fatalf("%s: %d in doubt, reference %d, want 2", what, len(inDoubt), len(refInDoubt))
			}
			for i, p := range refInDoubt {
				if inDoubt[i].Txn.ID() != p.id || inDoubt[i].Coordinator != p.coordinator {
					t.Fatalf("%s: in-doubt %d is txn %d of %s, reference txn %d of %s", what, i,
						inDoubt[i].Txn.ID(), inDoubt[i].Coordinator, p.id, p.coordinator)
				}
			}
			// ...and once they are decided — committed, which the reference
			// does by replaying their operations — nothing tells the two
			// repositories apart.
			for i, p := range refInDoubt {
				if err := inDoubt[i].Txn.CommitPrepared(); err != nil {
					t.Fatal(err)
				}
				for _, op := range p.ops {
					if err := ref.Redo(op); err != nil {
						t.Fatal(err)
					}
				}
			}
			ref.tm.SetNextID(got.tm.NextID()) // deciding allocated nothing, but Begin'ing the reference's never happened
			sameRepo(t, what, dumpRepo(t, got), dumpRepo(t, ref))
		}
	}
}

// Items own their bytes: DecodeRedo may be handed a view into a buffer
// that is overwritten the moment it returns. Here it is, for every
// operation of a history, and the repository built from the items must
// not show it.
func TestRedoItemsOwnTheirBytes(t *testing.T) {
	opts := Options{NoFsync: true, SegmentSize: 4 << 10}
	dir := t.TempDir()
	writeHistory(t, dir, opts, 7, historyShape{})
	want, _, _, err := openSequential(t, dir, opts, (*Repository).Redo)
	if err != nil {
		t.Fatal(err)
	}
	packed := 0
	got, _, redos, err := openSequential(t, dir, opts, func(r *Repository, view []byte) error {
		item, err := r.DecodeRedo(view)
		// The packed headers are the record's own bytes, copied: the one
		// place a decoded element could be left pointing into the view.
		enq, _ := item.(*redoEnqueue)
		var headers string
		if enq != nil {
			headers = strings.Clone(string(enq.el.headers))
		}
		for i := range view {
			view[i] = 0xA5
		}
		if err != nil {
			return err
		}
		if enq != nil && headers != "" {
			if string(enq.el.headers) != headers {
				t.Fatalf("element %d's packed headers changed with the record they were decoded from", enq.el.eid)
			}
			packed++
		}
		return r.ApplyRedo(item)
	})
	if err != nil || redos < 300 || packed < 100 {
		t.Fatalf("replayed %d operations, %d with headers: %v", redos, packed, err)
	}
	sameRepo(t, "decoded from scribbled views", dumpRepo(t, got), dumpRepo(t, want))
}

// However long the log, recovery holds about three segments of it: one
// being read ahead by the scan, one being decoded, one being applied.
func TestRecoveryInFlightIsBoundedBySegments(t *testing.T) {
	opts := Options{NoFsync: true, SegmentSize: 32 << 10}
	var peaks []int64
	for _, n := range []int{2000, 8000} {
		dir := t.TempDir()
		loadBacklog(t, dir, opts, n).Crash()
		segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
		var largest int64
		for _, s := range segs {
			if fi, err := os.Stat(s); err == nil && fi.Size() > largest {
				largest = fi.Size()
			}
		}
		r, _, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		r.Crash()
		// A segment overshoots SegmentSize by at most the record that
		// crossed the line (one transaction of ten elements here).
		if largest > opts.SegmentSize+8<<10 {
			t.Fatalf("a segment of %d B with SegmentSize %d", largest, opts.SegmentSize)
		}
		// PeakInFlight covers decode and apply; the scan's read-ahead is
		// one more segment (TestScanHoldsTwoBuffers in internal/wal).
		if peak := r.recovery.PeakInFlight; peak > 2*largest || peak+largest > 3*(opts.SegmentSize+8<<10) {
			t.Fatalf("%d elements in %d segments: %d B in flight, segments are at most %d B", n, len(segs), peak, largest)
		}
		t.Logf("%d elements, %d segments of at most %d B: %d B in flight at most", n, len(segs), largest, r.recovery.PeakInFlight)
		peaks = append(peaks, r.recovery.PeakInFlight)
	}
	if peaks[1] > peaks[0]+peaks[0]/4 {
		t.Fatalf("in-flight bytes grew with the log: %d B for the short one, %d B for the long one", peaks[0], peaks[1])
	}
}
