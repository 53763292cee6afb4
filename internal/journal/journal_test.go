package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, mut func(*Options)) (*Journal, *Recovery) {
	t.Helper()
	opts := Options{Dir: dir, Sync: SyncNever, Logf: t.Logf}
	if mut != nil {
		mut(&opts)
	}
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func entry(kind byte, s string) Entry { return Entry{Kind: kind, Data: []byte(s)} }

// emitAll is a Snapshot emit callback that streams a fixed state.
func emitAll(state []Entry) func(func(Entry) error) error {
	return func(add func(Entry) error) error {
		for _, e := range state {
			if err := add(e); err != nil {
				return err
			}
		}
		return nil
	}
}

// frameBytes is the on-disk size of entries framed back to back.
func frameBytes(entries ...Entry) uint64 {
	var n uint64
	for _, e := range entries {
		n += uint64(len(EncodeFrame(e)))
	}
	return n
}

func wantEntries(t *testing.T, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("entry %d = (%d, %q), want (%d, %q)", i, got[i].Kind, got[i].Data, want[i].Kind, want[i].Data)
		}
	}
}

// TestAppendReplayRoundTrip pins the core WAL contract: everything
// appended before Close comes back from the next Open, in order.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, dir, nil)
	if rec.Recovered {
		t.Fatal("fresh dir should not report a recovery")
	}
	want := []Entry{entry(1, "alpha"), entry(2, "beta"), entry(3, "")}
	for _, e := range want[:2] {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendBatch(want[2:]); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Appends != 3 || st.Bytes == 0 {
		t.Fatalf("stats = %+v, want 3 appends and nonzero bytes", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(entry(9, "late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	j2, rec2 := openT(t, dir, nil)
	defer j2.Close()
	if !rec2.Recovered || rec2.TailTruncated {
		t.Fatalf("recovery = %+v, want recovered without truncation", rec2)
	}
	wantEntries(t, rec2.Entries, want)
}

// TestSegmentRotation forces rotation with a tiny segment cap and
// checks replay order spans segments.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	var want []Entry
	for i := 0; i < 40; i++ {
		e := entry(1, fmt.Sprintf("record-%03d", i))
		want = append(want, e)
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Segments < 2 {
		t.Fatalf("segments = %d, want rotation to have happened", st.Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	defer j2.Close()
	wantEntries(t, rec.Entries, want)
}

// TestSnapshotCompaction checks replay after a snapshot is exactly
// state + post-snapshot appends, and superseded files are deleted.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	for i := 0; i < 20; i++ {
		if err := j.Append(entry(1, fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	state := []Entry{entry(7, "state-a"), entry(7, "state-b")}
	if err := j.Snapshot(emitAll(state)); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Snapshots != 1 || st.AppendsSinceSnapshot != 0 {
		t.Fatalf("stats after snapshot = %+v", st)
	}
	post := []Entry{entry(1, "post-0"), entry(1, "post-1")}
	for _, e := range post {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Old segments must be gone: replay sees only snapshot + tail.
	j2, rec := openT(t, dir, nil)
	defer j2.Close()
	wantEntries(t, rec.Entries, append(append([]Entry{}, state...), post...))

	// Exactly one snapshot file and one live segment chain remain.
	segs, snaps, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %v, want exactly 1", snaps)
	}
	for _, s := range segs {
		if s < snaps[0] {
			t.Fatalf("superseded segment %d not compacted (segments %v, snapshot %v)", s, segs, snaps)
		}
	}
}

// TestTornTailTruncateAndContinue simulates a crash mid-append: the
// final record is cut short; recovery must drop exactly that record,
// truncate the file, and keep accepting appends.
func TestTornTailTruncateAndContinue(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, nil)
	good := []Entry{entry(1, "keep-1"), entry(1, "keep-2")}
	for _, e := range good {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(entry(1, "torn-away")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segmentName(0))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-4); err != nil { // cut mid-frame
		t.Fatal(err)
	}

	j2, rec := openT(t, dir, nil)
	if !rec.TailTruncated {
		t.Fatal("recovery should report a truncated tail")
	}
	wantEntries(t, rec.Entries, good)

	// The journal must keep working after truncation.
	if err := j2.Append(entry(2, "after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, rec3 := openT(t, dir, nil)
	defer j3.Close()
	wantEntries(t, rec3.Entries, append(append([]Entry{}, good...), entry(2, "after-crash")))
}

// TestBitFlippedTailRecord flips a byte inside the last record: the CRC
// must reject it and recovery drops it with a warning.
func TestBitFlippedTailRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, nil)
	if err := j.Append(entry(1, "keep")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(entry(1, "flip-me")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir, nil)
	defer j2.Close()
	if !rec.TailTruncated {
		t.Fatal("bit-flipped tail should be treated as torn")
	}
	wantEntries(t, rec.Entries, []Entry{entry(1, "keep")})
}

// TestMidLogCorruptionFailsLoudly: corruption that is NOT at the log
// tail (here: in a sealed segment) must fail recovery with a pointer to
// the runbook, never silently drop acknowledged records.
func TestMidLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 32 })
	for i := 0; i < 10; i++ {
		if err := j.Append(entry(1, fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if j.Stats().Segments < 2 {
		t.Fatal("test needs at least 2 segments")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(0)) // sealed, not the tail
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[2] ^= 0xFF // corrupt the first frame's length field
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Sync: SyncNever}); err == nil {
		t.Fatal("mid-log corruption must fail recovery")
	}
}

// TestSyncPolicies exercises each policy end to end (durability itself
// cannot be asserted in-process; this pins the plumbing and counters).
func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, dir, func(o *Options) {
				o.Sync = pol
				o.SyncInterval = time.Millisecond
			})
			for i := 0; i < 5; i++ {
				if err := j.Append(entry(1, "x")); err != nil {
					t.Fatal(err)
				}
			}
			if pol == SyncAlways && j.Stats().Fsyncs < 5 {
				t.Fatalf("fsyncs = %d, want >= 5 under always", j.Stats().Fsyncs)
			}
			if pol == SyncInterval {
				deadline := time.Now().Add(5 * time.Second)
				for j.Stats().Fsyncs == 0 {
					if time.Now().After(deadline) {
						t.Fatal("interval flusher never fsynced")
					}
					time.Sleep(time.Millisecond)
				}
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, rec := openT(t, dir, nil)
			defer j2.Close()
			if len(rec.Entries) != 5 {
				t.Fatalf("replayed %d entries, want 5", len(rec.Entries))
			}
		})
	}
}

// TestParseSyncPolicy pins the flag spellings.
func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "never": SyncNever,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy should reject unknown spellings")
	}
}

// TestSnapshotCrashLeavesTmp simulates a crash mid-snapshot: a leftover
// snap.tmp must be ignored and removed, and the pre-snapshot log still
// replays in full.
func TestSnapshotCrashLeavesTmp(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, nil)
	want := []Entry{entry(1, "a"), entry(1, "b")}
	for _, e := range want {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A half-written snapshot that never got renamed into place.
	if err := os.WriteFile(filepath.Join(dir, "snap.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir, nil)
	defer j2.Close()
	wantEntries(t, rec.Entries, want)
	if _, err := os.Stat(filepath.Join(dir, "snap.tmp")); !os.IsNotExist(err) {
		t.Error("leftover snap.tmp should have been removed")
	}
}

// TestSnapshotDue pins the size-proportional trigger arithmetic: a
// compaction needs both the append floor AND at least the newest
// snapshot's size in WAL bytes since it was taken.
func TestSnapshotDue(t *testing.T) {
	for _, tc := range []struct {
		name       string
		st         Stats
		minAppends uint64
		want       bool
	}{
		{"disabled", Stats{AppendsSinceSnapshot: 1 << 20, BytesSinceSnapshot: 1 << 30}, 0, false},
		{"below append floor", Stats{AppendsSinceSnapshot: 9, BytesSinceSnapshot: 500}, 10, false},
		{"no snapshot yet", Stats{AppendsSinceSnapshot: 10, BytesSinceSnapshot: 1}, 10, true},
		{"bytes below snapshot size", Stats{AppendsSinceSnapshot: 5000, BytesSinceSnapshot: 999, SnapshotBytes: 1000}, 10, false},
		{"bytes equal snapshot size", Stats{AppendsSinceSnapshot: 10, BytesSinceSnapshot: 1000, SnapshotBytes: 1000}, 10, true},
		{"bytes above snapshot size", Stats{AppendsSinceSnapshot: 11, BytesSinceSnapshot: 4000, SnapshotBytes: 1000}, 10, true},
	} {
		if got := tc.st.SnapshotDue(tc.minAppends); got != tc.want {
			t.Errorf("%s: SnapshotDue(%d) on %+v = %v, want %v", tc.name, tc.minAppends, tc.st, got, tc.want)
		}
	}
}

// TestSnapshotByteCounters checks the counters the trigger reads: WAL
// bytes accumulate per append and reset at a snapshot, whose own size
// is recorded exactly as written to disk.
func TestSnapshotByteCounters(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, nil)
	defer j.Close()
	pre := []Entry{entry(1, "one"), entry(1, "two"), entry(1, "three")}
	for _, e := range pre {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.BytesSinceSnapshot != frameBytes(pre...) || st.SnapshotBytes != 0 {
		t.Fatalf("before snapshot: %+v, want %d bytes since and no snapshot", st, frameBytes(pre...))
	}
	state := []Entry{entry(7, "state-a"), entry(7, "state-bb")}
	if err := j.Snapshot(emitAll(state)); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SnapshotBytes != frameBytes(state...) || st.BytesSinceSnapshot != 0 || st.AppendsSinceSnapshot != 0 {
		t.Fatalf("after snapshot: %+v, want snapshot of %d bytes and zeroed counters", st, frameBytes(state...))
	}
	fi, err := os.Stat(filepath.Join(dir, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(fi.Size()) != st.SnapshotBytes {
		t.Fatalf("snapshot file is %d bytes, SnapshotBytes = %d", fi.Size(), st.SnapshotBytes)
	}
	if err := j.Append(entry(1, "post")); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.BytesSinceSnapshot != frameBytes(entry(1, "post")) {
		t.Fatalf("after post append: %+v", st)
	}
}

// TestOpenSeedsCompactionCounters: a restarted journal resumes the
// proportional schedule — SnapshotBytes comes from the loaded snapshot
// and the since-snapshot counters from the replayed segments (only
// their good prefix when a torn tail is truncated).
func TestOpenSeedsCompactionCounters(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	if err := j.Append(entry(1, "pre")); err != nil {
		t.Fatal(err)
	}
	state := []Entry{entry(7, "state-a"), entry(7, "state-b"), entry(7, "state-c")}
	if err := j.Snapshot(emitAll(state)); err != nil {
		t.Fatal(err)
	}
	var post []Entry
	for i := 0; i < 12; i++ { // spans several 64-byte segments
		e := entry(1, fmt.Sprintf("post-%02d", i))
		post = append(post, e)
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	want := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, _ := openT(t, dir, nil)
	got := j2.Stats()
	if got.SnapshotBytes != want.SnapshotBytes || got.BytesSinceSnapshot != want.BytesSinceSnapshot ||
		got.AppendsSinceSnapshot != want.AppendsSinceSnapshot {
		t.Fatalf("reopened counters = %+v, want those at close: %+v", got, want)
	}
	if got.SnapshotBytes != frameBytes(state...) || got.BytesSinceSnapshot != frameBytes(post...) ||
		got.AppendsSinceSnapshot != uint64(len(post)) {
		t.Fatalf("reopened counters = %+v, want snapshot %d B, %d B / %d appends since",
			got, frameBytes(state...), frameBytes(post...), len(post))
	}
	if err := j2.Append(entry(1, "torn-away")); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	j3, rec := openT(t, dir, nil)
	defer j3.Close()
	if !rec.TailTruncated {
		t.Fatal("want a truncated tail")
	}
	if st := j3.Stats(); st.BytesSinceSnapshot != frameBytes(post...) || st.AppendsSinceSnapshot != uint64(len(post)) {
		t.Fatalf("after torn tail: %+v, want only the good prefix counted (%d B, %d appends)",
			st, frameBytes(post...), len(post))
	}
}

// TestSnapshotEmitFailurePublishesNothing: a streamed snapshot whose
// emit fails partway leaves no snapshot behind; the journal keeps
// appending to its segment and recovery replays the previous snapshot
// plus every segment.
func TestSnapshotEmitFailurePublishesNothing(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, nil)
	if err := j.Append(entry(1, "pre")); err != nil {
		t.Fatal(err)
	}
	old := []Entry{entry(7, "old-a"), entry(7, "old-b")}
	if err := j.Snapshot(emitAll(old)); err != nil {
		t.Fatal(err)
	}
	mid := []Entry{entry(1, "mid-0"), entry(1, "mid-1")}
	for _, e := range mid {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Stats()

	boom := errors.New("encode failed")
	err := j.Snapshot(func(add func(Entry) error) error {
		if err := add(entry(7, "new-a")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Snapshot = %v, want the emit error", err)
	}
	if after := j.Stats(); after != before {
		t.Fatalf("failed snapshot changed stats: %+v -> %+v", before, after)
	}
	_, snaps, tmps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != 1 || len(tmps) != 0 {
		t.Fatalf("after failed snapshot: snapshots %v, temp files %v; want only snapshot 1", snaps, tmps)
	}

	// An oversized entry is refused before it reaches the file.
	if err := j.Snapshot(emitAll([]Entry{{Kind: 7, Data: make([]byte, MaxFrameBytes)}})); err == nil {
		t.Fatal("oversized snapshot entry should fail")
	}

	post := entry(1, "post")
	if err := j.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir, nil)
	defer j2.Close()
	wantEntries(t, rec.Entries, append(append(append([]Entry{}, old...), mid...), post))
}
