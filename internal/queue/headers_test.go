package queue

// The seam between the public Element and the resident elem: packed
// headers against the map they stand for, the encoding against the
// map-based decoder it replaced, callbacks against the queue they must not
// reach into, and the intrusive lists against their own invariants.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/enc"
	"repro/internal/obs/trace"
)

// randomHeaders draws a header map: nil, empty, or 1–40 keys with empty
// keys and values, bytes that are not UTF-8, and now and then a 64 KiB value.
func randomHeaders(rng *rand.Rand) map[string]string {
	str := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return string(b)
	}
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	m := make(map[string]string)
	for n := 1 + rng.Intn(40); n > 0; n-- {
		k, v := str(12), str(24)
		switch rng.Intn(12) {
		case 0:
			k = ""
		case 1:
			v = ""
		case 2:
			v = str(64 << 10)
		case 3:
			k = "amount" // what the PreferHeaderDesc check below ranks by
			v = strconv.Itoa(rng.Intn(1000))
		}
		m[k] = v
	}
	return m
}

func encodedMap(m map[string]string) []byte {
	b := enc.NewBuffer(64)
	b.StringMap(m)
	return b.Bytes()
}

// pack then materialise is the identity on header maps (the empty map comes
// back nil, as it always has through a decode), and reading a packing back
// from its encoding changes nothing.
func TestPackMaterialiseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		m := randomHeaders(rng)
		p := packHeaders(m)
		got := p.toMap()
		if len(m) == 0 {
			if p != "" || got != nil {
				t.Fatalf("no headers packed to %q, materialised to %v", p, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("pack then materialise changed\n%q\ninto\n%q", m, got)
		}
		if string(p) != string(encodedMap(m)) {
			t.Fatal("the packing is not the map's StringMap encoding")
		}
		r := enc.NewReader(encodedMap(m))
		if back := readPackedHeaders(r); back != p || r.Finish() != nil {
			t.Fatalf("read back %q (%v), packed %q", back, r.Finish(), p)
		}
		for k, v := range m {
			if p.get(k) != v {
				t.Fatalf("get(%q) = %q, the map holds %q", k, p.get(k), v)
			}
		}
		if p.get("no such key") != "" {
			t.Fatal("a key that is absent has a value")
		}
	}
}

// The in-place predicates decide as the same predicates on the materialised
// map do: HeaderMatch as the loop it replaced, PreferHeaderDesc as a Prefer
// callback written out by hand.
func TestPackedPredicatesMatchTheMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var els []*elem
	for i := 0; i < 300; i++ {
		els = append(els, &elem{headers: packHeaders(randomHeaders(rng))})
	}
	for i := 0; i < 2000; i++ {
		el := els[rng.Intn(len(els))]
		m := el.headers.toMap()
		match := make(map[string]string)
		for k, v := range m { // a subset of el's own headers, sometimes spoiled
			if rng.Intn(3) == 0 {
				match[k] = v
			}
		}
		switch rng.Intn(4) {
		case 0:
			match["absent"] = "x"
		case 1:
			match["absent"] = "" // an absent key matches the empty value, as m[k] does
		case 2:
			for k := range match {
				match[k] += "!"
				break
			}
		}
		want := true
		for k, v := range match {
			if m[k] != v {
				want = false
			}
		}
		opts := DequeueOpts{HeaderMatch: match}
		if got := opts.matches(el); got != want {
			t.Fatalf("HeaderMatch %q on %q: in place %v, on the map %v", match, m, got, want)
		}
	}
	inPlace := (&DequeueOpts{PreferHeaderDesc: "amount"}).effectivePrefer()
	onMap := (&DequeueOpts{Prefer: func(a, b *Element) bool {
		av, _ := strconv.ParseFloat(a.Headers["amount"], 64)
		bv, _ := strconv.ParseFloat(b.Headers["amount"], 64)
		return av > bv
	}}).effectivePrefer()
	ranked := 0
	for i := 0; i < 2000; i++ {
		a, b := els[rng.Intn(len(els))], els[rng.Intn(len(els))]
		if inPlace(a, b) != onMap(a, b) {
			t.Fatalf("PreferHeaderDesc ranks %q against %q differently in place and on the map", a.headers, b.headers)
		}
		if inPlace(a, b) {
			ranked++
		}
	}
	if ranked == 0 {
		t.Fatal("no pair was ever ranked: the check compared nothing")
	}
}

// Bytes this repository did not write — an older log's map-ordered pairs, a
// hostile record's duplicate keys — are normalised as they are packed: the
// last duplicate wins, as it does in a map, so a lookup in place and the
// materialised map cannot disagree.
func TestUntrustedHeadersAreNormalised(t *testing.T) {
	b := enc.NewBuffer(64)
	b.Uvarint(4)
	for _, kv := range [][2]string{{"k", "first"}, {"z", "1"}, {"a", "2"}, {"k", "last"}} {
		b.String(kv[0])
		b.String(kv[1])
	}
	r := enc.NewReader(b.Bytes())
	p := readPackedHeaders(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"k": "last", "z": "1", "a": "2"}
	if !reflect.DeepEqual(p.toMap(), want) || p != packHeaders(want) {
		t.Fatalf("normalised to %q, want the packing of %q", p, want)
	}
	if p.get("k") != "last" {
		t.Fatalf(`get("k") = %q, the map says "last"`, p.get("k"))
	}
	// Sorted already, but the same key twice: still not canonical.
	b.Reset()
	b.Uvarint(2)
	b.String("k")
	b.String("1")
	b.String("k")
	b.String("2")
	if p := readPackedHeaders(enc.NewReader(b.Bytes())); p != packHeaders(map[string]string{"k": "2"}) {
		t.Fatalf("a repeated key packed to %q", p)
	}
}

// FuzzPackedHeaders: arbitrary bytes either fail to decode or pack to
// something whose lookups and materialised map are Reader.StringMap's
// answer for the same bytes.
func FuzzPackedHeaders(f *testing.F) {
	f.Add(encodedMap(map[string]string{"rid": "c0.1", "client": "loader0", "kind": "request"}))
	f.Add(encodedMap(nil))
	f.Add([]byte{2, 1, 'k', 1, '1', 1, 'k', 1, '2'})
	f.Add([]byte{0x80, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := enc.NewReader(data)
		want := ref.StringMap()
		r := enc.NewReader(data)
		p := readPackedHeaders(r)
		if (ref.Err() == nil) != (r.Err() == nil) {
			t.Fatalf("StringMap: %v; packed: %v", ref.Err(), r.Err())
		}
		if ref.Err() != nil {
			return
		}
		if ref.Remaining() != r.Remaining() {
			t.Fatalf("StringMap leaves %d B, packing leaves %d B", ref.Remaining(), r.Remaining())
		}
		if got := p.toMap(); !reflect.DeepEqual(got, want) {
			t.Fatalf("materialised %q, StringMap decodes %q", got, want)
		}
		for k, v := range want {
			if p.get(k) != v {
				t.Fatalf("get(%q) = %q, StringMap decodes %q", k, p.get(k), v)
			}
		}
		if p != packHeaders(want) {
			t.Fatalf("packed %q, the canonical packing is %q", p, packHeaders(want))
		}
	})
}

// refDecodeElement is the element decoder as it was before headers were
// packed — enc.Reader.StringMap and all, which the wire client still uses —
// kept here as the reference the new encoder is read back with.
func refDecodeElement(r *enc.Reader, traceTail bool) (Element, error) {
	var e Element
	e.EID = EID(r.Uvarint())
	e.Queue = r.String()
	e.Priority = int32(r.Varint())
	e.Body = r.BytesField()
	e.Headers = r.StringMap()
	e.ScratchPad = r.BytesField()
	e.ReplyTo = r.String()
	e.AbortCount = int32(r.Varint())
	e.AbortCode = r.String()
	e.seq = r.Uvarint()
	if traceTail {
		id, span := r.TraceTail()
		e.Trace, e.Span = trace.ID(id), trace.SpanID(span)
	}
	return e, r.Err()
}

// sameElement compares what an encoding carries (not Redelivered, which it
// does not; and nil and empty bytes are one value on the wire).
func sameElement(a, b Element) bool {
	return a.EID == b.EID && a.Queue == b.Queue && a.Priority == b.Priority &&
		bytes.Equal(a.Body, b.Body) && bytes.Equal(a.ScratchPad, b.ScratchPad) &&
		(len(a.Headers) == 0 && len(b.Headers) == 0 || reflect.DeepEqual(a.Headers, b.Headers)) &&
		a.ReplyTo == b.ReplyTo && a.AbortCount == b.AbortCount && a.AbortCode == b.AbortCode &&
		a.Trace == b.Trace && a.Span == b.Span && a.seq == b.seq
}

// What this tree writes, the unchanged map-based decoder reads: every
// element of the scripted history's snapshot, and every enqueue record and
// registration copy in its log, equals what the repository itself recovers.
func TestWrittenElementsDecodeByReference(t *testing.T) {
	dir := t.TempDir()
	r, _, err := Open(dir, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	scriptedHistory(t, r)

	// The log, by the oracle's sequential replay with a redo that first
	// reads each record the old way.
	checked, regCopies := 0, 0
	byRef := func(r *Repository, op []byte) error {
		rd := enc.NewReader(op)
		switch rd.Uint8() {
		case opEnqueue:
			want, err := refDecodeElement(rd, false)
			if err != nil {
				return fmt.Errorf("reference decode of an enqueue record: %w", err)
			}
			_, _, _ = rd.String(), rd.View(), rd.String()
			id, span := rd.TraceTail()
			want.Trace, want.Span = trace.ID(id), trace.SpanID(span)
			if err := r.Redo(op); err != nil {
				return err
			}
			got, err := r.Read(want.EID)
			if err != nil || !sameElement(got, want) {
				return fmt.Errorf("enqueue record of %d: repository holds %+v (%v), reference decodes %+v", want.EID, got, err, want)
			}
			checked++
			return nil
		case opDequeue:
			_, _, _, _, _ = rd.View(), rd.Uvarint(), rd.View(), rd.View(), rd.View()
			if blob := rd.View(); len(blob) > 0 {
				want, err := refDecodeElement(enc.NewReader(blob), true)
				got, gerr := unmarshalElement(blob)
				if err != nil || gerr != nil || !sameElement(got, want) {
					return fmt.Errorf("registration copy: %+v (%v), reference decodes %+v (%v)", got, gerr, want, err)
				}
				regCopies++
			}
		}
		return r.Redo(op)
	}
	if _, _, _, err := openSequential(t, dir, goldenOpts, byRef); err != nil {
		t.Fatal(err)
	}
	if checked < 60 || regCopies == 0 {
		t.Fatalf("only %d enqueue records and %d registration copies were read by the reference decoder", checked, regCopies)
	}

	// The snapshot: decode its element section the old way.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap", "*"))
	if len(snaps) != 1 {
		t.Fatalf("%d snapshot files", len(snaps))
	}
	ref, _, err := Open(snapOnly(t, dir), goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Crash()
	data, _, err := ref.snap.Load()
	if err != nil {
		t.Fatal(err)
	}
	rd := enc.NewReader(data)
	_, _, _, _, _ = rd.Uint8(), rd.String(), rd.Uvarint(), rd.Uvarint(), rd.Uvarint()
	inSnap := 0
	for nq := rd.Uvarint(); nq > 0; nq-- {
		decodeConfig(rd)
		rd.Bool()
		for ne := rd.Uvarint(); ne > 0; ne-- {
			want, err := refDecodeElement(rd, true)
			if err != nil {
				t.Fatalf("reference decode of a snapshot element: %v", err)
			}
			got, err := ref.Read(want.EID)
			if err != nil || !sameElement(got, want) {
				t.Fatalf("snapshot element %d: repository holds %+v (%v), reference decodes %+v", want.EID, got, err, want)
			}
			inSnap++
		}
	}
	if inSnap < 15 {
		t.Fatalf("only %d snapshot elements were read by the reference decoder", inSnap)
	}
}

// snapOnly copies dir without its log.
func snapOnly(t testing.TB, dir string) string {
	t.Helper()
	out := t.TempDir()
	copyTree(t, dir, out)
	if err := os.RemoveAll(filepath.Join(out, "wal")); err != nil {
		t.Fatal(err)
	}
	return out
}

// A Filter or Prefer callback runs under the shard lock on the caller's
// code. It used to be handed the queued element itself, so writing to
// e.Headers or e.Body changed the queue with no log record — undone by the
// next crash, kept by the next snapshot. It is handed a copy.
func TestCallbacksCannotMutateTheQueue(t *testing.T) {
	dir := t.TempDir()
	r, _, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	if err := r.CreateQueue(QueueConfig{Name: "q"}); err != nil {
		t.Fatal(err)
	}
	var eids []EID
	for i := 0; i < 3; i++ {
		eid, err := r.Enqueue(nil, "q", Element{
			Body:       []byte("body"),
			ScratchPad: []byte("pad"),
			Headers:    map[string]string{"k": "v", "amount": strconv.Itoa(i)},
		}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		eids = append(eids, eid)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := nodeFiles(t, filepath.Join(dir, "snap"))

	scribble := func(e *Element) {
		e.Headers["k"] = "scribbled"
		e.Headers["new"] = "key"
		e.Body[0], e.ScratchPad[0] = 'X', 'X'
		e.Priority, e.ReplyTo = 9, "elsewhere"
	}
	ctx := context.Background()
	_, err = r.Dequeue(ctx, nil, "q", "", DequeueOpts{Filter: func(e *Element) bool { scribble(e); return false }})
	if err == nil {
		t.Fatal("a Filter that matches nothing dequeued something")
	}
	tx := r.Begin()
	if _, err := r.Dequeue(ctx, tx, "q", "", DequeueOpts{Prefer: func(a, b *Element) bool { scribble(a); scribble(b); return false }}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	for i, eid := range eids {
		e, err := r.Read(eid)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{"k": "v", "amount": strconv.Itoa(i)}
		if string(e.Body) != "body" || string(e.ScratchPad) != "pad" || !reflect.DeepEqual(e.Headers, want) || e.Priority != 0 || e.ReplyTo != "" {
			t.Fatalf("element %d after the callbacks: %+v", eid, e)
		}
	}
	// The abort is logged and counted, so the snapshot differs there; undo
	// it the honest way and compare what the callbacks could have touched.
	els, err := r.ListElements("q", 0)
	if err != nil || len(els) != 3 {
		t.Fatalf("%d elements, %v", len(els), err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	latest := func(files map[string][]byte) (data []byte) {
		newest := ""
		for name, b := range files {
			if name > newest {
				newest, data = name, b
			}
		}
		return data
	}
	old, cur := latest(before), latest(nodeFiles(t, filepath.Join(dir, "snap")))
	for _, s := range []string{"scribbled", "Xody", "Xad", "elsewhere"} {
		if bytes.Contains(cur, []byte(s)) {
			t.Fatalf("the checkpoint after the callbacks contains %q", s)
		}
	}
	if !bytes.Contains(old, []byte("body")) || bytes.Count(cur, []byte("body")) != bytes.Count(old, []byte("body")) {
		t.Fatal("the checkpoints do not hold the bodies the test looks for")
	}
}

// checkLists walks every priority list of every queue: links consistent in
// both directions, FIFO order, each element where its fields say it is, and
// the counters equal to what is linked.
func checkLists(t testing.TB, r *Repository) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, qs := range r.queues {
		qs.lock()
		visible, dequeued, total := 0, 0, 0
		for prio, l := range qs.lists {
			n := 0
			var prev *elem
			for el := l.head; el != nil; prev, el = el, el.next {
				if el.prev != prev {
					t.Fatalf("%s prio %d: element %d's prev is not its predecessor", name, prio, el.eid)
				}
				if prev != nil && prev.seq > el.seq {
					t.Fatalf("%s prio %d: seq %d before %d", name, prio, prev.seq, el.seq)
				}
				if !el.linked || el.priority != prio || el.q.Load() != qs {
					t.Fatalf("%s prio %d: element %d thinks it is elsewhere (linked %v, prio %d)", name, prio, el.eid, el.linked, el.priority)
				}
				if got, ok := r.elems.get(el.eid); !ok || got != el {
					t.Fatalf("%s: element %d is linked but not indexed", name, el.eid)
				}
				switch el.state {
				case stateVisible:
					visible++
				case stateDequeued:
					dequeued++
				}
				n++
			}
			if l.tail != prev || n != l.n {
				t.Fatalf("%s prio %d: tail or count wrong: walked %d, n = %d", name, prio, n, l.n)
			}
			total += n
		}
		if qs.stats.Depth != visible || qs.stats.InFlight != dequeued || qs.live() != total {
			t.Fatalf("%s: Depth %d InFlight %d live %d, but %d visible, %d dequeued, %d linked",
				name, qs.stats.Depth, qs.stats.InFlight, qs.live(), visible, dequeued, total)
		}
		qs.unlock()
	}
}

// The intrusive lists through a seeded history of everything that links,
// unlinks or moves an element — enqueue, dequeue, abort and diversion, kill,
// redirect, destroy, a volatile queue's ring sealed and drained — and
// through the recovery of it.
func TestIntrusiveListsStayConsistent(t *testing.T) {
	opts := Options{NoFsync: true, SegmentSize: 64 << 10}
	dir := t.TempDir()
	r, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := &history{t: t, r: r, rng: rand.New(rand.NewSource(11))}
	for _, cfg := range []QueueConfig{{Name: "a", ErrorQueue: "a.err", RetryLimit: 2}, {Name: "a.err"}, {Name: "b"},
		{Name: "replies"}, {Name: "redir", RedirectTo: "a"}, {Name: "v", Volatile: true}} {
		h.must(r.CreateQueue(cfg))
	}
	_, _, err = r.Register("a", "clientA", true)
	h.must(err)
	ctx := context.Background()
	for i := 0; i < 1500; i++ {
		switch h.rng.Intn(10) {
		case 0:
			_, err := r.Enqueue(nil, "redir", h.elem(), "", nil)
			h.must(err)
		case 1: // ring traffic, then something that seals and drains it
			for j := h.rng.Intn(5); j >= 0; j-- {
				_, err := r.Enqueue(nil, "v", Element{Body: []byte("v")}, "", nil)
				h.must(err)
			}
			if h.rng.Intn(2) == 0 {
				_, err := r.ListElements("v", 0)
				h.must(err)
			} else {
				_, err := r.Dequeue(ctx, nil, "v", "", DequeueOpts{HeaderMatch: map[string]string{"no": "match"}})
				h.must(err)
			}
		case 2:
			_, err := r.Dequeue(ctx, nil, "v", "", DequeueOpts{})
			h.must(err)
		default:
			h.step()
		}
		if i%50 == 0 {
			checkLists(t, r)
		}
	}
	checkLists(t, r)
	r.Crash()
	r, inDoubt, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	checkLists(t, r)
	for _, p := range inDoubt {
		h.must(p.Txn.AbortPrepared())
	}
	checkLists(t, r)
}
