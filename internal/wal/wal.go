// Package wal implements a segmented, checksummed write-ahead log.
//
// The log is the durability backbone of the queue manager. Per the paper's
// implementation notes (Section 10), queue repositories are managed as
// main-memory databases: all reads are served from memory, and the log plus
// periodic snapshots provide recoverability. The log therefore only ever
// needs to be read at recovery time, sequentially.
//
// Records are opaque to this package; the transaction manager defines their
// contents. Each record is framed as
//
//	lsn     uint64  little-endian
//	length  uint32  little-endian, payload length
//	type    uint8
//	payload [length]byte
//	crc     uint32  little-endian, CRC-32C over the preceding fields
//
// LSNs are assigned densely starting at 1. The log is split into segment
// files named wal-<first-lsn>.seg so that TruncateBefore can drop whole
// files. A torn write at the tail of the last segment (from a crash mid-
// append) is detected by the CRC and treated as the end of the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/log"
)

// LSN is a log sequence number. LSNs start at 1 and increase by one per
// appended record. Zero is never a valid LSN; it is used as "before the
// first record".
type LSN uint64

// Record is a single log entry.
type Record struct {
	LSN     LSN
	Type    uint8
	Payload []byte
}

// SyncPolicy is the type of the deprecated Options.Sync field.
//
// Deprecated: a log has one write path (Append stages, SyncTo forces);
// there is no policy to choose.
type SyncPolicy int

// SyncGroup names the one write path every log runs. It is the zero
// value of Options.Sync.
//
// Deprecated: setting Options.Sync has no effect.
const SyncGroup SyncPolicy = 0

// Options configure Open.
type Options struct {
	// SegmentSize is the byte size at which a new segment file is started.
	// Zero means the default (4 MiB).
	SegmentSize int64
	// Sync is ignored: every log group-commits.
	//
	// Deprecated: it remains so that existing callers compile.
	Sync SyncPolicy
	// NoFsync disables the physical fsync syscall while keeping the flush
	// bookkeeping (wal.fsyncs still counts each force). Tests use it to
	// keep the durability accounting without paying disk latency;
	// correctness tests that crash processes must not set it.
	NoFsync bool
	// Metrics receives the log's instruments (wal.appends, wal.append_bytes,
	// wal.fsyncs, wal.fsync_ns, wal.group_size, wal.group_wait_ns,
	// wal.group_flushes, wal.rotations). Nil gives the log a private
	// registry, so instrumentation is always live.
	Metrics *obs.Registry
	// GroupCommit tunes when a flush starts; see GroupCommitConfig.
	GroupCommit GroupCommitConfig
	// FS, when non-nil, supplies segment files for the write path. Tests
	// use it to interpose crash-fault layers (internal/chaos/walfault);
	// nil means the real filesystem.
	FS VFS
	// Logger receives lifecycle events (open, torn-tail truncation,
	// rotation, writer failure). Nil disables logging.
	Logger *log.Logger
	// Gate, when non-nil, is invoked after a flush reaches local stable
	// storage and before the covered durable-LSN promises are released
	// (syncedLSN published, committers woken). Synchronous replication
	// hangs here: the gate ships the flushed bytes to a standby and does
	// not return until the standby acknowledges them (or a lag budget
	// allows release). A gate error poisons the log exactly like a failed
	// fsync — the promise of already-assigned LSNs cannot be kept.
	Gate Gate
}

// Gate blocks the release of durable-LSN promises after a local flush.
// upTo is the highest LSN the flush covered. When the flushed bytes are
// known to be a single contiguous append, seg is the segment file path,
// off the offset the bytes landed at, and batch the raw frame bytes —
// the ship unit, handed over without re-reading the file. When the
// flush was not one contiguous append (a rotation inside the batch),
// batch is nil and the gate must diff the log directory itself. The gate
// runs outside the log mutex and must not call back into the Log.
type Gate func(upTo LSN, seg string, off int64, batch []byte) error

const (
	defaultSegmentSize = 4 << 20
	headerSize         = 8 + 4 + 1 // lsn + length + type
	trailerSize        = 4         // crc
	segPrefix          = "wal-"
	segSuffix          = ".seg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the log.
var (
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt reports a checksum or framing failure before the tail.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// Log is an append-only segmented write-ahead log. It is safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options
	fs   VFS
	gc   GroupCommitConfig

	mu       sync.Mutex
	closed   bool
	active   File
	activeSz int64
	firstLSN LSN // first LSN of the active segment
	nextLSN  LSN
	segments []segmentInfo

	// syncedLSN is the highest LSN known durable; committers parked in
	// SyncTo wait on syncCond for it to pass their LSN.
	syncedLSN LSN
	syncCond  *sync.Cond

	// Write-path state. Appends stage frames under mu; a committer on the
	// inline-force path or the writer goroutine flushes them. Whoever
	// sets flushing owns active, activeSz, and firstLSN exclusively until
	// it clears the flag — no other path touches them between Open and
	// Close. writerErr is sticky: once a flush fails, the promise of
	// already-assigned LSNs cannot be kept and the log refuses further
	// appends.
	// Staged frames live contiguously in staged (one encoded frame after
	// another); stagedEnds[i] is the end offset of frame i and stagedFirst
	// the LSN of frame 0. A flush swaps the buffers with spare/spareEnds
	// when it takes a batch, so steady state stages and flushes with zero
	// per-record allocation and writes each batch with one syscall.
	staged      []byte
	stagedEnds  []int
	stagedFirst LSN
	spare       []byte
	spareEnds   []int
	writerCond  *sync.Cond // wakes the writer (work or close)
	syncWaiters int        // committers parked in SyncTo
	flushing    bool       // a batch flush is in flight (file owned by the flusher)
	writerErr   error
	closing     bool
	writerDone  chan struct{}

	// testSyncDelay simulates fsync latency when NoFsync is set, so tests
	// can observe group-commit batching deterministically.
	testSyncDelay time.Duration

	logger *log.Logger
	gate   Gate // see Options.Gate; nil when unreplicated

	// Instruments, resolved once at Open (obs hot-path contract). appends
	// and syncs also back the Stats API.
	mAppends      *obs.Counter
	mAppendBytes  *obs.Counter
	mFsyncs       *obs.Counter
	mFsyncNanos   *obs.Histogram
	mGroupSize    *obs.Histogram
	mGroupWait    *obs.Histogram
	mGroupFlushes *obs.Counter
	mRotations    *obs.Counter
}

type segmentInfo struct {
	first LSN
	path  string
}

// Open opens or creates a log in dir. Existing segments are scanned to find
// the next LSN; a torn final record is truncated away.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := &Log{dir: dir, opts: opts, gc: opts.GroupCommit, nextLSN: 1}
	l.logger = opts.Logger.Named("wal")
	l.gate = opts.Gate
	l.fs = opts.FS
	if l.fs == nil {
		l.fs = osVFS{}
	}
	l.mAppends = reg.Counter("wal.appends")
	l.mAppendBytes = reg.Counter("wal.append_bytes")
	l.mFsyncs = reg.Counter("wal.fsyncs")
	l.mFsyncNanos = reg.Histogram("wal.fsync_ns")
	l.mGroupSize = reg.Histogram("wal.group_size")
	l.mGroupWait = reg.Histogram("wal.group_wait_ns")
	l.mGroupFlushes = reg.Counter("wal.group_flushes")
	l.mRotations = reg.Counter("wal.rotations")
	l.syncCond = sync.NewCond(&l.mu)
	l.writerCond = sync.NewCond(&l.mu)
	if err := l.loadSegments(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	l.syncedLSN = l.nextLSN - 1 // everything recovered is on disk
	l.writerDone = make(chan struct{})
	go l.writerLoop()
	l.logger.Info("log opened",
		log.Str("dir", dir),
		log.Int("segments", len(l.segments)),
		log.Uint64("next_lsn", uint64(l.nextLSN)))
	return l, nil
}

// Err reports the log's health: nil while the log can accept appends,
// the sticky writer error once an append or fsync has failed (the log is
// poisoned — a torn frame or dropped dirty pages mean durability
// promises can no longer be kept), or ErrClosed after Close. This is the
// probe behind /healthz's "wal" component.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writerErr != nil {
		return l.writerErr
	}
	if l.closed || l.closing {
		return ErrClosed
	}
	return nil
}

func segName(first LSN) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, uint64(first), segSuffix)
}

func parseSegName(name string) (LSN, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return LSN(v), true
}

func (l *Log) loadSegments() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: read dir: %w", err)
	}
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok {
			l.segments = append(l.segments, segmentInfo{first: first, path: filepath.Join(l.dir, e.Name())})
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i].first < l.segments[j].first })
	// Determine nextLSN by scanning the last segment; earlier segments are
	// trusted (they were complete when rotated).
	if len(l.segments) == 0 {
		return nil
	}
	last := l.segments[len(l.segments)-1]
	lastLSN, validLen, err := scanSegment(last.path, last.first)
	if err != nil {
		return err
	}
	// Truncate a torn tail so the next append lands on a clean boundary.
	if fi, err := os.Stat(last.path); err == nil && fi.Size() > validLen {
		if err := os.Truncate(last.path, validLen); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		l.logger.Warn("torn tail truncated",
			log.Str("segment", last.path),
			log.Int64("torn_bytes", fi.Size()-validLen),
			log.Uint64("last_lsn", uint64(lastLSN)))
	}
	if lastLSN >= l.nextLSN {
		l.nextLSN = lastLSN + 1
	}
	if lastLSN == 0 {
		// Empty last segment: next LSN is its declared first LSN, which may
		// reflect records in earlier segments.
		if last.first > l.nextLSN {
			l.nextLSN = last.first
		}
	}
	return nil
}

// scanSegment walks a segment validating frames, returning the last valid
// LSN (0 if none) and the byte length of the valid prefix. Unlike Scan it
// also ends the prefix at a sequence break: what follows one cannot be
// appended after.
func scanSegment(path string, first LSN) (LSN, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	var last LSN
	off := int64(0)
	want := first
	for {
		rec, n, ok := decodeFrame(data[off:])
		if !ok || rec.LSN != want {
			break
		}
		last = rec.LSN
		want++
		off += n
	}
	return last, off, nil
}

// decodeFrame validates the frame at the head of b and returns it with
// its framed length. The record's Payload is a view into b, not a copy.
// ok is false on any truncation or checksum failure.
func decodeFrame(b []byte) (Record, int64, bool) {
	if len(b) < headerSize+trailerSize {
		return Record{}, 0, false
	}
	lsn := binary.LittleEndian.Uint64(b)
	length := binary.LittleEndian.Uint32(b[8:])
	typ := b[12]
	total := int64(headerSize) + int64(length) + trailerSize
	if int64(len(b)) < total {
		return Record{}, 0, false
	}
	end := headerSize + int(length)
	if crc32.Checksum(b[:end], castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
		return Record{}, 0, false
	}
	return Record{LSN: LSN(lsn), Type: typ, Payload: b[headerSize:end:end]}, total, true
}

func (l *Log) openActive() error {
	var first LSN
	if n := len(l.segments); n > 0 {
		first = l.segments[n-1].first
	} else {
		first = l.nextLSN
		path := filepath.Join(l.dir, segName(first))
		l.segments = append(l.segments, segmentInfo{first: first, path: path})
	}
	path := l.segments[len(l.segments)-1].path
	f, err := l.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat active segment: %w", err)
	}
	l.active = f
	l.activeSz = fi.Size()
	l.firstLSN = first
	return nil
}

// NextLSN returns the LSN that the next Append will be assigned.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// LastLSN returns the LSN of the most recently appended record, or 0 if the
// log is empty.
func (l *Log) LastLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Append stages a record and returns its LSN: a durable-LSN promise —
// the record reaches stable storage at that LSN, in order, or the log
// reports a sticky failure. The record is durable once SyncTo(lsn)
// returns; Append itself writes nothing.
func (l *Log) Append(typ uint8, payload []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.closing {
		return 0, ErrClosed
	}
	return l.stageLocked(typ, payload)
}

// Sync forces every record appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncToLocked(l.nextLSN - 1)
}

// SyncTo blocks until every record up to lsn is durable. One flush — one
// write and one fsync — covers every record staged before it starts, so
// concurrent committers share forces (group commit); see group.go.
func (l *Log) SyncTo(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncToLocked(lsn)
}

// Stats reports operation counters since Open.
type Stats struct {
	Appends  uint64
	Syncs    uint64
	Segments int
	NextLSN  LSN
}

// Stats returns a snapshot of the log's counters (backed by the same
// instruments the metrics registry exposes).
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Appends: l.mAppends.Value(), Syncs: l.mFsyncs.Value(), Segments: len(l.segments), NextLSN: l.nextLSN}
}

// TruncateBefore removes whole segments whose records all precede lsn. It
// never splits a segment, so some records below lsn may survive; recovery
// must tolerate replaying from earlier than requested.
func (l *Log) TruncateBefore(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	keep := l.segments[:0:0]
	for i, s := range l.segments {
		// A segment may be removed if the next segment starts at or below
		// lsn (so this one holds only records < lsn) and it is not active.
		if i+1 < len(l.segments) && l.segments[i+1].first <= lsn {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			continue
		}
		keep = append(keep, s)
	}
	l.segments = keep
	return nil
}

// ScanStats describes one Scan.
type ScanStats struct {
	// Records and Bytes count the frames handed to fn and their framed size.
	Records int
	Bytes   int64
	// Busy is the time the reader spent reading and checksumming segments;
	// it overlaps with fn.
	Busy time.Duration
}

// scanBuf is one of Scan's two segment buffers: a segment file's bytes and
// the valid records found in them, both reused from segment to segment.
type scanBuf struct {
	data  []byte
	recs  []Record
	bytes int64
}

// load reads the segment at path into b and indexes its valid frames with
// LSN >= from. A missing file loads as empty: TruncateBefore may remove a
// segment between the snapshot of the list and the read.
func (b *scanBuf) load(path string, from LSN) error {
	b.recs, b.bytes = b.recs[:0], 0
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: read segment: %w", err)
	}
	defer f.Close()
	data := b.data[:0]
	if fi, err := f.Stat(); err == nil && int64(cap(data)) <= fi.Size() {
		// Segments overshoot SegmentSize by up to a flush batch, each by a
		// different amount: the headroom keeps the next one from regrowing
		// the buffer, and the read that finds EOF needs a spare byte.
		data = make([]byte, 0, fi.Size()+fi.Size()/8+1)
	}
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
	b.data = data
	for off := int64(0); ; {
		rec, n, ok := decodeFrame(data[off:])
		if !ok {
			return nil
		}
		if rec.LSN >= from {
			b.recs = append(b.recs, rec)
			b.bytes += n
		}
		off += n
	}
}

// Scan streams every record with LSN >= from to fn in log order, one call
// per segment that holds any. The records' Payloads are views into a
// buffer that is overwritten once fn returns: fn must copy what it keeps.
// A reader goroutine reads and checksums the next segment while fn works
// on the current one, into the other of two buffers, so a scan holds two
// segments in memory however long the log is. Within a segment the scan
// ends at the first frame that fails its checksum (a torn tail).
//
// Scan re-reads the segment files and is meant for recovery: appends made
// while it runs see an undefined suffix. Under the lock it only snapshots
// the segment list; file contents are immutable except the active tail,
// which recovery never races with.
func (l *Log) Scan(from LSN, fn func(seg []Record) error) (ScanStats, error) {
	var st ScanStats
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return st, ErrClosed
	}
	// Flush what is staged so it reaches its segment. If the log has
	// failed, what is on disk is all there will ever be, which is exactly
	// what recovery should see: the error is not the scan's.
	_ = l.syncToLocked(l.nextLSN - 1)
	segs := append([]segmentInfo(nil), l.segments...)
	l.mu.Unlock()

	free := make(chan *scanBuf, 2) // the two buffers, when neither side holds them
	free <- &scanBuf{}
	free <- &scanBuf{}
	full := make(chan *scanBuf)
	stop := make(chan struct{})
	var readErr error
	var busy time.Duration // the reader's; read after full is closed
	go func() {
		defer close(full)
		for _, s := range segs {
			var b *scanBuf
			select {
			case b = <-free:
			case <-stop:
				return
			}
			t0 := time.Now()
			readErr = b.load(s.path, from)
			busy += time.Since(t0)
			if readErr != nil {
				return
			}
			select {
			case full <- b:
			case <-stop:
				return
			}
		}
	}()
	var err error
	for b := range full {
		if len(b.recs) > 0 {
			st.Records += len(b.recs)
			st.Bytes += b.bytes
			if err = fn(b.recs); err != nil {
				close(stop)
				for range full { // wait for the reader to leave
				}
				return st, err
			}
		}
		free <- b
	}
	st.Busy = busy
	return st, readErr
}

// ReadFrom returns all records with LSN >= from, in order, each owning its
// payload. It holds the whole result in memory; recovery uses Scan, and
// this remains for callers with short logs (the 2PC coordinator's decision
// log, tools, tests).
func (l *Log) ReadFrom(from LSN) ([]Record, error) {
	var out []Record
	_, err := l.Scan(from, func(seg []Record) error {
		for _, rec := range seg {
			rec.Payload = append(make([]byte, 0, len(rec.Payload)), rec.Payload...)
			out = append(out, rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close flushes and closes the log. Records staged before Close carry a
// durable-LSN promise, so the writer drains them rather than dropping
// them; then the file closes and everyone still parked wakes.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.closing { // concurrent Close already driving the shutdown
		l.mu.Unlock()
		<-l.writerDone
		return nil
	}
	l.closing = true
	l.writerCond.Broadcast()
	l.mu.Unlock()
	<-l.writerDone
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	err := l.writerErr
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = cerr
	}
	l.syncCond.Broadcast()
	return err
}

// CopyTail is a test/diagnostic helper: it flushes what is staged and
// returns the raw bytes of the active segment so crash tests can simulate
// torn writes.
func (l *Log) CopyTail() ([]byte, string, error) {
	l.mu.Lock()
	_ = l.syncToLocked(l.nextLSN - 1)
	path := l.segments[len(l.segments)-1].path
	l.mu.Unlock()
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return b, path, nil
}

var _ io.Closer = (*Log)(nil)
