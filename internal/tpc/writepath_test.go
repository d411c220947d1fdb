package tpc

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/queue"
	"repro/internal/wal"
)

// countingFS is a wal.VFS over the real filesystem that counts the
// segment Write and Sync calls a log makes.
type countingFS struct{ writes, syncs atomic.Int64 }

func (c *countingFS) OpenAppend(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

type countingFile struct {
	*os.File
	c *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	f.c.writes.Add(1)
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}

// syncProbe is a branch that reads the coordinator log's fsync count at
// phase 1 and at phase 2.
type syncProbe struct {
	log                 *wal.Log
	atPrepare, atCommit uint64
}

func (p *syncProbe) BranchName() string { return "probe" }
func (p *syncProbe) Prepare(string) error {
	p.atPrepare = p.log.Stats().Syncs
	return nil
}
func (p *syncProbe) CommitPrepared() error {
	p.atCommit = p.log.Stats().Syncs
	return nil
}
func (p *syncProbe) AbortPrepared() error { return nil }
func (p *syncProbe) Abort() error         { return nil }

// TestSingleCommitterWritePathCounts pins what one committer pays on the
// log's only write path, in counts rather than clocks: on a default
// repository, each sequential durable enqueue is one segment write and
// one fsync, forced inline by the committer itself (no wait for another
// goroutine, wal.group_wait_ns stays empty). A 2PC commit decision is
// forced before any branch hears it: the coordinator log's fsync count
// rises by exactly one between phase 1 and phase 2.
func TestSingleCommitterWritePathCounts(t *testing.T) {
	dir := t.TempDir()
	fs := &countingFS{}
	repo, _, err := queue.Open(filepath.Join(dir, "repo"), queue.Options{WALFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	if err := repo.CreateQueue(queue.QueueConfig{Name: "q"}); err != nil {
		t.Fatal(err)
	}
	base := repo.Metrics().Snapshot()
	writes0, syncs0 := fs.writes.Load(), fs.syncs.Load()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: []byte("x")}, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if w := fs.writes.Load() - writes0; w != n {
		t.Fatalf("%d segment writes for %d commits, want %d", w, n, n)
	}
	if s := fs.syncs.Load() - syncs0; s != n {
		t.Fatalf("%d segment syncs for %d commits, want %d", s, n, n)
	}
	end := repo.Metrics().Snapshot()
	if c := end.Histograms["wal.group_wait_ns"].Count - base.Histograms["wal.group_wait_ns"].Count; c != 0 {
		t.Fatalf("wal.group_wait_ns observed %d waits, want 0: a lone committer forces inline", c)
	}

	coord, err := OpenCoordinator("c", filepath.Join(dir, "coord"), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	tx := repo.Begin()
	if _, err := repo.Enqueue(tx, "q", queue.Element{Body: []byte("2pc")}, "", nil); err != nil {
		t.Fatal(err)
	}
	probe := &syncProbe{log: coord.Log()}
	g := coord.Begin()
	g.Enlist(&LocalBranch{Label: "repo", Txn: tx})
	g.Enlist(probe)
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if d := probe.atCommit - probe.atPrepare; d != 1 {
		t.Fatalf("coordinator log forced %d times between phase 1 and phase 2, want 1 (the decision)", d)
	}
	if d, _ := repo.Depth("q"); d != n+1 {
		t.Fatalf("depth %d, want %d", d, n+1)
	}
}
