package txn

// The recovery oracle. recoverSequential is the recovery loop as it was
// before it became a pipeline — read the whole log, then decode and apply
// one operation at a time on one goroutine — kept here as the reference
// the pipelined Recover is compared against over generated logs.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/enc"
	"repro/internal/lock"
	"repro/internal/wal"
)

func recoverSequential(m *Manager, snapLSN wal.LSN) ([]InDoubt, error) {
	recs, err := m.log.ReadFrom(1)
	if err != nil {
		return nil, err
	}
	type pending struct {
		coordinator string
		ops         []Op
		lsn         wal.LSN
	}
	readOps := func(r *enc.Reader) (uint64, []Op, error) {
		var ops []Op
		id, err := decodeOps(r, func(rm, data []byte) error {
			ops = append(ops, Op{RM: string(rm), Data: append([]byte(nil), data...)})
			return nil
		})
		return id, ops, err
	}
	inDoubt := make(map[uint64]*pending)
	var order []uint64
	maxID := uint64(0)
	apply := func(ops []Op) error {
		for _, op := range ops {
			rm, ok := m.rms[op.RM]
			if !ok {
				return fmt.Errorf("%w: %q", ErrUnknownRM, op.RM)
			}
			item, err := rm.DecodeRedo(op.Data)
			if err == nil {
				err = rm.ApplyRedo(item)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, rec := range recs {
		r := enc.NewReader(rec.Payload)
		switch rec.Type {
		case recCommit:
			id, ops, err := readOps(r)
			if err != nil {
				return nil, err
			}
			if id > maxID {
				maxID = id
			}
			if rec.LSN <= snapLSN {
				continue
			}
			if err := apply(ops); err != nil {
				return nil, err
			}
		case recPrepare:
			coord := r.String()
			id, ops, err := readOps(r)
			if err != nil {
				return nil, err
			}
			if id > maxID {
				maxID = id
			}
			inDoubt[id] = &pending{coordinator: coord, ops: ops, lsn: rec.LSN}
			order = append(order, id)
		case recDecision:
			id := r.Uvarint()
			commit := r.Bool()
			if err := r.Err(); err != nil {
				return nil, err
			}
			p, ok := inDoubt[id]
			if !ok {
				continue
			}
			delete(inDoubt, id)
			if commit && rec.LSN > snapLSN {
				if err := apply(p.ops); err != nil {
					return nil, err
				}
			}
		}
	}
	m.SetNextID(maxID + 1)
	var out []InDoubt
	for _, id := range order {
		p, ok := inDoubt[id]
		if !ok {
			continue
		}
		t := &Txn{m: m, id: id}
		for _, op := range p.ops {
			rm, ok := m.rms[op.RM]
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownRM, op.RM)
			}
			if err := rm.RedoPrepared(t, op.Data); err != nil {
				return nil, err
			}
		}
		t.ops = p.ops
		t.prepareLSN = p.lsn
		t.setState(Prepared)
		s := m.stripe(id)
		s.mu.Lock()
		s.txns[id] = t
		s.mu.Unlock()
		m.mBegun.Inc()
		m.mActive.Add(1)
		out = append(out, InDoubt{Txn: t, Coordinator: p.coordinator})
	}
	return out, nil
}

// journalRM records what recovery asks of it, in order. Decoding copies,
// as the contract demands, so a view that is reused too early shows up as
// a journal that differs from the reference's.
type journalRM struct {
	name    string
	journal *[]string // shared by the RMs of one manager: the order across RMs matters too
	failOn  string    // ApplyRedo fails on this op
}

func (j *journalRM) RMName() string { return j.name }

func (j *journalRM) DecodeRedo(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%s: empty op", j.name)
	}
	return string(data), nil
}

func (j *journalRM) ApplyRedo(item any) error {
	if item.(string) == j.failOn {
		return fmt.Errorf("%s: cannot apply %q", j.name, item)
	}
	*j.journal = append(*j.journal, j.name+" redo "+item.(string))
	return nil
}

func (j *journalRM) RedoPrepared(t *Txn, data []byte) error {
	*j.journal = append(*j.journal, fmt.Sprintf("%s prepared %d %s", j.name, t.ID(), data))
	return nil
}

type recovered struct {
	journal []string
	inDoubt []string
	nextID  uint64
	err     bool
}

func recoverJournal(t *testing.T, dir string, segSize int64, snapLSN wal.LSN, failOn string, sequential bool) recovered {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{NoFsync: true, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	m := NewManager(log, lock.NewManager())
	var out recovered
	m.RegisterRM(&journalRM{name: "a", journal: &out.journal, failOn: failOn})
	m.RegisterRM(&journalRM{name: "b", journal: &out.journal, failOn: failOn})
	var inDoubt []InDoubt
	if sequential {
		inDoubt, err = recoverSequential(m, snapLSN)
	} else {
		inDoubt, _, err = m.Recover(snapLSN)
	}
	if err != nil {
		// Which operations were applied before a failed recovery gave up is
		// not part of the contract: the state is discarded.
		return recovered{err: true}
	}
	for _, d := range inDoubt {
		out.inDoubt = append(out.inDoubt, fmt.Sprintf("%d %s @%d %v", d.Txn.ID(), d.Coordinator, d.Txn.prepareLSN, d.Txn.ops))
	}
	out.nextID = m.NextID()
	return out
}

func TestRecoverMatchesSequential(t *testing.T) {
	const segSize = 1 << 10
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		log, err := wal.Open(dir, wal.Options{NoFsync: true, SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(log, lock.NewManager())
		var prepared []*Txn
		var ops []string
		for i := 0; i < 400; i++ {
			tx := m.Begin()
			for j := rng.Intn(4) + 1; j > 0; j-- {
				op := fmt.Sprintf("op%d.%d %x", i, j, rng.Uint64())
				ops = append(ops, op)
				tx.LogOp([]string{"a", "b"}[rng.Intn(2)], []byte(op))
			}
			var err error
			switch k := rng.Intn(10); {
			case k < 6:
				err = tx.Commit()
			case k < 7:
				err = tx.Abort()
			default:
				if err = tx.Prepare(fmt.Sprintf("coord%d", i)); err == nil {
					prepared = append(prepared, tx)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(prepared) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(prepared))
				tx := prepared[k]
				prepared = append(prepared[:k], prepared[k+1:]...)
				if rng.Intn(2) == 0 {
					err = tx.CommitPrepared()
				} else {
					err = tx.AbortPrepared()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		last := log.LastLSN()
		log.Close()
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		sort.Strings(segs)
		if len(segs) < 4 {
			t.Fatalf("log has %d segments, want at least 4", len(segs))
		}
		// A torn tail on every log; a corrupt frame mid-log — everything
		// after it in its segment is lost, leaving a gap in the LSNs — on
		// every other one.
		tail, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		tail.Write([]byte{byte(last + 1), 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 1, 'x'})
		tail.Close()
		if seed%2 == 0 {
			mid := segs[len(segs)/2]
			b, err := os.ReadFile(mid)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xff
			if err := os.WriteFile(mid, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		failing := ops[rng.Intn(len(ops))]
		for _, c := range []struct {
			snap   wal.LSN
			failOn string
		}{{0, ""}, {last / 3, ""}, {last, ""}, {0, failing}} {
			want := recoverJournal(t, dir, segSize, c.snap, c.failOn, true)
			got := recoverJournal(t, dir, segSize, c.snap, c.failOn, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, snapshot at %d of %d, failing on %q: the pipeline recovered\n%+v\nthe sequential loop\n%+v",
					seed, c.snap, last, c.failOn, got, want)
			}
			if c.snap == 0 && c.failOn == "" && len(want.journal) < 100 {
				t.Fatalf("seed %d: the reference replayed only %d operations", seed, len(want.journal))
			}
		}
	}
}
