package wal

// The write path: staging, group commit, and the log writer.
//
// Append does not touch the segment file: it encodes the frame, assigns
// the LSN, and stages the bytes on an in-memory batch — a *durable-LSN
// promise*: the record WILL reach stable storage at that LSN, in order,
// or the log will report a sticky failure. SyncTo(lsn) keeps the promise.
// A flush takes the whole staged batch and writes it with one write
// syscall plus one fsync (rotating segments as it goes), then advances
// syncedLSN and wakes the committers it covered.
//
// Who flushes: a committer in SyncTo that finds no flush in flight
// flushes inline, so an uncontended commit costs exactly one write and
// one fsync and never hands off to another goroutine. While a flush is
// in flight, later committers stage and park; when it completes, the
// writer goroutine (or a woken committer) flushes everything they staged
// as the next batch, so the fsync rate is bounded by disk latency rather
// than by the commit rate (classic group commit). The writer also runs
// GroupCommitConfig's batching window, flushes once MaxBatchBytes are
// staged, and drains the batch at Close.
//
// The commit protocol built on top (internal/txn) releases transaction
// locks as soon as the commit record is staged, blocking only on the
// force-completion notification — see DESIGN.md "Group commit & commit
// pipelining" for why early release is safe: log order equals LSN order,
// so any transaction that observed this one's effects commits at a later
// LSN and can never survive a crash this one did not.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"repro/internal/obs/log"
	"time"
)

// GroupCommitConfig tunes when a flush starts. The zero value is a
// sensible default: flush as soon as a committer asks and no flush is in
// flight (natural batching — commits arriving during an fsync form the
// next batch), with a 1 MiB batch cap.
type GroupCommitConfig struct {
	// MaxDelay, when positive, is a deliberate batching window: after the
	// first record of a batch is staged the writer waits up to MaxDelay
	// for more committers before forcing, trading commit latency for
	// larger batches (fewer fsyncs). Zero disables the window.
	MaxDelay time.Duration
	// MaxBatchBytes starts a flush once this many bytes are staged, even
	// with no committer waiting, and cuts a MaxDelay window short. Zero
	// means 1 MiB.
	MaxBatchBytes int
	// MaxWaiters, when positive, cuts a MaxDelay window short once this
	// many committers are blocked in SyncTo — everyone who will join the
	// batch has arrived, so waiting longer only adds latency.
	MaxWaiters int
}

const defaultMaxBatchBytes = 1 << 20

func (c GroupCommitConfig) maxBatchBytes() int {
	if c.MaxBatchBytes > 0 {
		return c.MaxBatchBytes
	}
	return defaultMaxBatchBytes
}

// VFS abstracts creation of append-mode segment files so tests can
// interpose crash-fault layers under the log (torn tail writes, dropped
// unsynced data — see internal/chaos/walfault). Only the write path is
// virtualized: recovery reads, truncation, and removal act on the real
// files, which a fault layer mutates in place to simulate a crash.
type VFS interface {
	// OpenAppend opens (creating if needed) path for appending.
	OpenAppend(path string) (File, error)
}

// File is a writable segment file handle.
type File interface {
	io.Writer
	// Sync forces written data to stable storage.
	Sync() error
	// Close closes the handle.
	Close() error
}

// osVFS is the default VFS over the real filesystem.
type osVFS struct{}

func (osVFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// stageLocked is Append's body: encode, assign the LSN, stage the frame,
// and return the durable-LSN promise. It wakes the writer only once the
// batch reaches MaxBatchBytes — the committer's own SyncTo starts the
// flush otherwise, inline. Caller holds l.mu.
func (l *Log) stageLocked(typ uint8, payload []byte) (LSN, error) {
	if l.writerErr != nil {
		return 0, fmt.Errorf("wal: append after writer failure: %w", l.writerErr)
	}
	lsn := l.nextLSN
	if len(l.stagedEnds) == 0 {
		l.stagedFirst = lsn
	}
	l.staged = appendFrame(l.staged, lsn, typ, payload)
	l.stagedEnds = append(l.stagedEnds, len(l.staged))
	l.nextLSN++
	l.mAppends.Inc()
	l.mAppendBytes.Add(uint64(headerSize + len(payload) + trailerSize))
	if len(l.staged) >= l.gc.maxBatchBytes() {
		l.writerCond.Signal()
	}
	return lsn, nil
}

// appendFrame appends one framed record (header + payload + CRC) to buf.
func appendFrame(buf []byte, lsn LSN, typ uint8, payload []byte) []byte {
	start := len(buf)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(lsn))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	hdr[12] = typ
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.Checksum(buf[start:], castagnoli))
	return append(buf, tr[:]...)
}

// syncToLocked is SyncTo's body: block until every record up to lsn is
// durable. Caller holds l.mu (released via the cond while parked). A
// parked wait is the commit-pipelining force window and is observed as
// wal.group_wait_ns; an inline force is not a wait.
func (l *Log) syncToLocked(lsn LSN) error {
	var waitStart time.Time
	for l.syncedLSN < lsn {
		if l.writerErr != nil {
			return fmt.Errorf("wal: group sync: %w", l.writerErr)
		}
		if l.closed {
			return ErrClosed
		}
		// Inline force: with no flush in flight and no deliberate batching
		// window, flush the staged batch ourselves instead of handing off
		// to the writer — the uncontended commit then never parks, saving
		// two context switches. Under load the flushing flag is set and
		// committers park as usual, forming the next batch.
		if !l.flushing && !l.closing && l.gc.MaxDelay == 0 && len(l.stagedEnds) > 0 {
			l.flushStagedLocked()
			continue
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		l.syncWaiters++
		l.writerCond.Signal() // a waiter may cut the batch window short
		l.syncCond.Wait()
		l.syncWaiters--
	}
	if !waitStart.IsZero() {
		l.mGroupWait.Observe(time.Since(waitStart).Nanoseconds())
	}
	return nil
}

// writerLoop is the log writer: appends only stage, and the flushing
// flag hands the segment file to exactly one flusher at a time (this
// goroutine, or a committer on the inline-force path), so writes and
// fsyncs happen entirely outside l.mu and commits keep staging while a
// force is in flight.
func (l *Log) writerLoop() {
	defer close(l.writerDone)
	l.mu.Lock()
	for {
		for (len(l.stagedEnds) == 0 || l.flushing) && !l.closing {
			l.writerCond.Wait()
		}
		if l.flushing { // closing, but a committer owns the file: wait it out
			l.writerCond.Wait()
			continue
		}
		if len(l.stagedEnds) == 0 { // closing and fully drained
			l.mu.Unlock()
			return
		}
		if l.writerErr != nil {
			// The log is broken: staged frames can never become durable.
			// Fail their committers and wait for Close.
			l.staged, l.stagedEnds = l.staged[:0], l.stagedEnds[:0]
			l.syncCond.Broadcast()
			continue
		}
		if d := l.gc.MaxDelay; d > 0 && !l.closing {
			l.waitBatchWindowLocked(d)
		}
		l.flushStagedLocked()
	}
}

// flushStagedLocked takes the staged batch (swapping the staging buffers
// with the spares so new commits keep staging), flushes it with l.mu
// released, and publishes the result. The flushing flag grants exclusive
// ownership of the segment file for the duration; it is set and cleared
// under l.mu, so the writer and an inline-forcing committer never flush
// concurrently. Caller holds l.mu with flushing unset and at least one
// staged frame; l.mu is held again on return.
func (l *Log) flushStagedLocked() {
	batch, ends, first := l.staged, l.stagedEnds, l.stagedFirst
	l.staged, l.stagedEnds = l.spare[:0], l.spareEnds[:0]
	l.spare, l.spareEnds = batch, ends
	target := first + LSN(len(ends)) - 1
	// Where this batch will land if no rotation interrupts it — handed to
	// the replication gate so the common case ships the staged bytes
	// directly instead of re-reading the segment.
	segPath, segOff := l.segments[len(l.segments)-1].path, l.activeSz
	l.flushing = true
	l.mu.Unlock()

	rotated, err := l.flushBatch(batch, ends, first)

	// Replication gate: the batch is locally durable; its durable-LSN
	// promises are not released (syncedLSN stays put, committers stay
	// parked) until the gate returns. Runs outside l.mu, so new commits
	// keep staging the next batch while this one ships. The batch buffer
	// is stable here: it becomes a staging buffer again only after a later
	// flush swap, which cannot start until flushing clears below.
	if err == nil && l.gate != nil {
		if !rotated {
			err = l.gate(target, segPath, segOff, batch[:ends[len(ends)-1]])
		} else { // rotated mid-batch: the gate diffs the directory
			err = l.gate(target, "", 0, nil)
		}
	}

	l.mu.Lock()
	l.flushing = false
	if err != nil {
		l.writerErr = err
		l.logger.Error("group-commit writer failed; log poisoned",
			log.Err(err),
			log.Uint64("first_lsn", uint64(first)),
			log.Int("batch", len(ends)))
	} else {
		l.syncedLSN = target
		l.mGroupSize.Observe(int64(len(ends)))
		l.mGroupFlushes.Inc()
	}
	if l.syncWaiters > 0 || l.closing {
		// Parked committers may have staged the next batch, or Close is
		// waiting. With nobody parked, a wake-up would only let the
		// writer steal a lone committer's next batch from under its
		// inline force.
		l.writerCond.Signal()
	}
	l.syncCond.Broadcast()
}

// waitBatchWindowLocked parks the writer for up to max after the first
// record of a batch, letting more committers join; it is cut short when
// the staged bytes hit MaxBatchBytes, when MaxWaiters committers are
// blocked, or at close. Caller holds l.mu.
func (l *Log) waitBatchWindowLocked(max time.Duration) {
	expired := false
	tm := time.AfterFunc(max, func() {
		l.mu.Lock()
		expired = true
		l.writerCond.Signal()
		l.mu.Unlock()
	})
	for !expired && !l.closing && l.writerErr == nil &&
		len(l.staged) < l.gc.maxBatchBytes() &&
		!(l.gc.MaxWaiters > 0 && l.syncWaiters >= l.gc.MaxWaiters) {
		l.writerCond.Wait()
	}
	tm.Stop()
}

// flushBatch writes a batch of staged frames with the minimum number of
// write syscalls (one per segment touched) and exactly one fsync at the
// end; segment rotation inside a batch adds one fsync per retired
// segment, which is then complete and immutable. Runs with no locks held
// except for the brief segment-list update inside rotateGroup. The batch
// is already contiguous (frames buf[off:ends[0]], buf[ends[0]:ends[1]],
// …), so the common no-rotation case is exactly one Write of buf. The
// returned bool reports whether a rotation occurred (the replication
// gate then cannot treat the batch as one contiguous append).
func (l *Log) flushBatch(buf []byte, ends []int, first LSN) (bool, error) {
	off := 0
	rotated := false
	for i := 0; i < len(ends); {
		if l.activeSz >= l.opts.SegmentSize {
			if err := l.rotateGroup(first + LSN(i)); err != nil {
				return rotated, err
			}
			rotated = true
		}
		// Extend the chunk while the next frame would still start below
		// the rotation threshold: a segment rotates before the first
		// record that would start at or past SegmentSize.
		j := i + 1
		for j < len(ends) && l.activeSz+int64(ends[j-1]-off) < l.opts.SegmentSize {
			j++
		}
		n, err := l.active.Write(buf[off:ends[j-1]])
		l.activeSz += int64(n)
		if err != nil {
			return rotated, fmt.Errorf("wal: group append: %w", err)
		}
		off = ends[j-1]
		i = j
	}
	l.mFsyncs.Inc()
	if l.opts.NoFsync {
		if l.testSyncDelay > 0 {
			time.Sleep(l.testSyncDelay)
		}
		return rotated, nil
	}
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		return rotated, fmt.Errorf("wal: group sync: %w", err)
	}
	l.mFsyncNanos.Observe(time.Since(start).Nanoseconds())
	return rotated, nil
}

// rotateGroup retires the active segment (forcing it first, so rotated
// segments are always fully durable and TruncateBefore can drop them
// without a second look) and opens a new one whose first record will be
// firstLSN. Only the flusher calls it; l.mu is taken just for the
// segment list update.
func (l *Log) rotateGroup(firstLSN LSN) error {
	l.mFsyncs.Inc()
	if !l.opts.NoFsync {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: rotate sync: %w", err)
		}
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	path := filepath.Join(l.dir, segName(firstLSN))
	f, err := l.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("wal: rotate open: %w", err)
	}
	l.mu.Lock()
	l.segments = append(l.segments, segmentInfo{first: firstLSN, path: path})
	n := len(l.segments)
	l.mu.Unlock()
	l.active = f
	l.activeSz = 0
	l.firstLSN = firstLSN
	l.mRotations.Inc()
	l.logger.Debug("segment rotated",
		log.Uint64("first_lsn", uint64(firstLSN)),
		log.Int("segments", n))
	return nil
}
