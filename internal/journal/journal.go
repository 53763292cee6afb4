package journal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy controls when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) batches fsyncs on a timer: appends are
	// durable within Options.SyncInterval of returning. One disk flush
	// amortizes across every append in the window.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before every Append/AppendBatch returns: an
	// acknowledged record is durable even across power loss. This is the
	// slowest policy; AppendBatch amortizes it across a whole batch.
	SyncAlways
	// SyncNever leaves flushing to the OS page cache. Survives process
	// crashes (the kernel still has the pages) but not power loss.
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always", "interval", and
// "never" to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval, or never)", s)
}

// String returns the flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Options configures Open. Only Dir is required.
type Options struct {
	// Dir is the data directory; created (0o755) if missing.
	Dir string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval (default 100ms).
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). Rotation bounds both replay work and the disk
	// space reclaimed lazily by compaction.
	SegmentBytes int64
	// Logf receives recovery warnings and lifecycle logs; nil discards.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Sync == SyncInterval && o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats is a point-in-time snapshot of journal counters.
type Stats struct {
	// Appends counts entries appended (batch entries count individually).
	Appends uint64
	// Fsyncs counts file flushes issued (appends, rotations, snapshots).
	Fsyncs uint64
	// Bytes counts frame bytes written to segments since Open.
	Bytes uint64
	// Segments is the current number of live WAL segment files.
	Segments int
	// Snapshots counts snapshot compactions taken since Open.
	Snapshots uint64
	// AppendsSinceSnapshot counts appends since the last compaction.
	// Open seeds it with the entries replayed from post-snapshot
	// segments, so the count survives a restart.
	AppendsSinceSnapshot uint64
	// BytesSinceSnapshot counts frame bytes in segments written since
	// the last compaction; Open seeds it from the replayed segments.
	BytesSinceSnapshot uint64
	// SnapshotBytes is the size of the newest snapshot (0 if none);
	// Open seeds it from the snapshot it loaded.
	SnapshotBytes uint64
}

// SnapshotDue reports whether a compaction is due under the
// size-proportional rule: at least minAppends appends AND at least as
// many WAL bytes as the newest snapshot holds since it was taken.
// Because the live state a snapshot rewrites can grow by at most the
// bytes appended since the previous one, snapshot sizes grow
// geometrically and each appended byte is rewritten into a constant
// number of snapshots: compaction costs amortized O(1) per appended
// byte, and replay stays bounded by about twice the live state.
// minAppends 0 disables compaction.
func (s Stats) SnapshotDue(minAppends uint64) bool {
	return minAppends > 0 && s.AppendsSinceSnapshot >= minAppends && s.BytesSinceSnapshot >= s.SnapshotBytes
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Journal is an append-only segmented WAL. All methods are safe for
// concurrent use; appends are serialized internally.
type Journal struct {
	opts Options
	dir  string
	lock *dirLock // exclusive flock on dir; held Open..Close

	mu     sync.Mutex
	f      *os.File // active segment
	seq    uint64   // active segment sequence number
	size   int64    // bytes in the active segment
	closed bool
	dirty  bool // unsynced appends (interval policy)

	stats Stats

	stopFlush chan struct{}
	flushWG   sync.WaitGroup
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Entries is the full replay: snapshot entries (if any) followed by
	// every post-snapshot WAL entry in append order.
	Entries []Entry
	// Recovered is true when any prior state (snapshot or non-empty
	// segment) existed, i.e. this Open performed a recovery.
	Recovered bool
	// TailTruncated is true when the final record of the last segment
	// was torn or corrupt and recovery dropped it (logged as a warning).
	TailTruncated bool
}

// Open opens (or initializes) the journal in opts.Dir and replays any
// existing state. The returned Recovery carries the replayed entries;
// the journal is positioned to append after the last good record.
func Open(opts Options) (*Journal, *Recovery, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, errors.New("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating dir: %w", err)
	}
	// Two processes appending to one WAL interleave frames and corrupt
	// each other's tail; refuse to share the dir at all. The flock dies
	// with the process, so crash recovery never needs a manual unlock.
	lock, err := acquireDirLock(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{opts: opts, dir: opts.Dir, lock: lock, stopFlush: make(chan struct{})}
	rec, err := j.recover()
	if err != nil {
		_ = lock.release()
		return nil, nil, err
	}
	if opts.Sync == SyncInterval {
		j.flushWG.Add(1)
		go j.flushLoop()
	}
	return j, rec, nil
}

// segmentName / snapshotName are the on-disk file names for sequence s.
func segmentName(s uint64) string  { return fmt.Sprintf("wal-%016d.seg", s) }
func snapshotName(s uint64) string { return fmt.Sprintf("snap-%016d.snap", s) }

// Append journals one entry, honoring the sync policy before returning.
func (j *Journal) Append(e Entry) error {
	return j.AppendBatch([]Entry{e})
}

// AppendBatch journals entries atomically with respect to recovery
// ordering (they land contiguously in one segment) and with a single
// fsync under SyncAlways — the batch amortization used by the dmwd
// batch submission endpoint.
func (j *Journal) AppendBatch(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	var buf []byte
	for _, e := range entries {
		if 1+len(e.Data) > MaxFrameBytes {
			return fmt.Errorf("journal: entry of %d bytes exceeds frame limit", len(e.Data))
		}
		buf = AppendFrame(buf, e)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.size >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: appending to %s: %w", j.f.Name(), err)
	}
	j.size += int64(len(buf))
	j.stats.Bytes += uint64(len(buf))
	j.stats.Appends += uint64(len(entries))
	j.stats.AppendsSinceSnapshot += uint64(len(entries))
	j.stats.BytesSinceSnapshot += uint64(len(buf))
	switch j.opts.Sync {
	case SyncAlways:
		if err := j.syncLocked(); err != nil {
			return err
		}
	case SyncInterval:
		j.dirty = true
	}
	return nil
}

// Sync forces an fsync of the active segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync %s: %w", j.f.Name(), err)
	}
	j.stats.Fsyncs++
	j.dirty = false
	return nil
}

// rotateLocked seals the active segment and starts seq+1.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: sealing segment: %w", err)
	}
	return j.openSegmentLocked(j.seq + 1)
}

// openSegmentLocked opens (creating if needed) segment seq for append
// and makes it the active one.
func (j *Journal) openSegmentLocked(seq uint64) error {
	path := filepath.Join(j.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: stat segment: %w", err)
	}
	j.f, j.seq, j.size = f, seq, st.Size()
	j.stats.Segments = j.countSegmentsLocked()
	return j.syncDir()
}

// countSegmentsLocked counts wal-*.seg files currently on disk.
func (j *Journal) countSegmentsLocked() int {
	names, err := filepath.Glob(filepath.Join(j.dir, "wal-*.seg"))
	if err != nil {
		return 0
	}
	return len(names)
}

// syncDir fsyncs the data directory so file creations/renames/removals
// are themselves durable (POSIX requires a directory fsync for that).
func (j *Journal) syncDir() error {
	d, err := os.Open(j.dir)
	if err != nil {
		return fmt.Errorf("journal: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	j.stats.Fsyncs++
	return nil
}

// Snapshot performs snapshot compaction: it atomically writes the full
// state, rotates to a fresh segment, and deletes every segment and
// snapshot the new snapshot supersedes. Recovery after a Snapshot
// replays exactly state + the new segments.
//
// The state is streamed: emit is called once and must pass every state
// entry, in replay order, to add, which frames it straight into the
// snapshot file through one buffered writer — peak memory is one entry,
// not a copy of the whole state. If emit (or add) fails, nothing is
// published: the temp file is removed, the journal keeps appending to
// its current segment, and recovery still replays the previous
// snapshot plus every segment. emit runs with the journal's lock held
// and must not call back into the journal.
//
// The caller must guarantee that the emitted state reflects every entry
// appended so far (dmwd serializes appends and snapshots behind one
// store mutex); entries appended concurrently with Snapshot could
// otherwise land in a deleted segment.
func (j *Journal) Snapshot(emit func(add func(Entry) error) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}

	newSeq := j.seq + 1

	// 1. Write the snapshot to a temp file and rename it into place:
	// a crash mid-write leaves only a *.tmp that recovery ignores.
	tmp := filepath.Join(j.dir, "snap.tmp")
	entries, size, err := writeSnapshot(tmp, emit)
	if err != nil {
		_ = os.Remove(tmp) // best-effort: recovery removes any leftover *.tmp
		return err
	}
	final := filepath.Join(j.dir, snapshotName(newSeq))
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: publishing snapshot: %w", err)
	}
	if err := j.syncDir(); err != nil {
		return err
	}

	// 2. Rotate so post-snapshot appends land in segment newSeq.
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: sealing segment: %w", err)
	}
	if err := j.openSegmentLocked(newSeq); err != nil {
		return err
	}

	// 3. Drop superseded files. Best-effort: a leftover old segment is
	// harmless (recovery replays snapshot + segments >= newSeq only).
	j.removeSuperseded(newSeq)
	j.stats.Segments = j.countSegmentsLocked()
	j.stats.Snapshots++
	j.stats.AppendsSinceSnapshot = 0
	j.stats.BytesSinceSnapshot = 0
	j.stats.SnapshotBytes = uint64(size)
	j.opts.Logf("journal: snapshot seq=%d (%d entries, %d bytes)", newSeq, entries, size)
	return nil
}

// writeSnapshot streams emit's entries as frames into path through one
// buffered writer, then flushes, fsyncs and closes it. It returns the
// entry count and the bytes written.
func writeSnapshot(path string, emit func(add func(Entry) error) error) (entries int, size int64, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: creating %s: %w", path, err)
	}
	defer f.Close() // error path only; the success path checks Close below
	w := bufio.NewWriterSize(f, 256<<10)
	var frame []byte
	add := func(e Entry) error {
		if 1+len(e.Data) > MaxFrameBytes {
			return fmt.Errorf("journal: snapshot entry of %d bytes exceeds frame limit", len(e.Data))
		}
		frame = AppendFrame(frame[:0], e)
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("journal: writing %s: %w", path, err)
		}
		entries++
		size += int64(len(frame))
		return nil
	}
	if err := emit(add); err != nil {
		return 0, 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, 0, fmt.Errorf("journal: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return 0, 0, fmt.Errorf("journal: fsync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("journal: closing %s: %w", path, err)
	}
	return entries, size, nil
}

// removeSuperseded deletes segments with seq < keep and snapshots with
// seq < keep.
func (j *Journal) removeSuperseded(keep uint64) {
	segs, snaps, _, err := scanDir(j.dir)
	if err != nil {
		j.opts.Logf("journal: compaction scan: %v", err)
		return
	}
	for _, s := range segs {
		if s < keep {
			if err := os.Remove(filepath.Join(j.dir, segmentName(s))); err != nil {
				j.opts.Logf("journal: removing superseded segment %d: %v", s, err)
			}
		}
	}
	for _, s := range snaps {
		if s < keep {
			if err := os.Remove(filepath.Join(j.dir, snapshotName(s))); err != nil {
				j.opts.Logf("journal: removing superseded snapshot %d: %v", s, err)
			}
		}
	}
	if err := j.syncDir(); err != nil {
		j.opts.Logf("journal: compaction dir fsync: %v", err)
	}
}

// Stats returns current counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close flushes and closes the journal. Further operations return
// ErrClosed. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	err := j.f.Sync()
	if err == nil {
		j.stats.Fsyncs++
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.mu.Unlock()

	close(j.stopFlush)
	j.flushWG.Wait()
	if lerr := j.lock.release(); err == nil {
		err = lerr
	}
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}

// flushLoop services the SyncInterval policy.
func (j *Journal) flushLoop() {
	defer j.flushWG.Done()
	t := time.NewTicker(j.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.mu.Lock()
			if !j.closed && j.dirty {
				if err := j.syncLocked(); err != nil {
					j.opts.Logf("journal: interval flush: %v", err)
				}
			}
			j.mu.Unlock()
		case <-j.stopFlush:
			return
		}
	}
}
