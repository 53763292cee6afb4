package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dmw/internal/journal"
)

// openTestJournalStore opens a journal-backed store over a fresh
// in-memory index in dir.
func openTestJournalStore(t *testing.T, dir string, snapshotEvery int) *journalStore {
	t.Helper()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := newJournalStore(newMemStore(), jnl, snapshotEvery, t.Logf)
	t.Cleanup(func() { _ = jnl.Close() })
	return s
}

// drainQueue pops every job a not-Started server holds in its queue, in
// dispatch order.
func drainQueue(s *Server) []string {
	var ids []string
	for n := s.queue.Len(); n > 0; n-- {
		job, _ := s.queue.Pop()
		ids = append(ids, job.ID)
	}
	return ids
}

// TestSnapshotKeepsSubmissionOrder: jobs queued while no worker drains
// the queue must be re-enqueued in submission order after a snapshot
// and a crash — both for a snapshot taken by the running server and
// for the one recovery itself takes before the next crash.
func TestSnapshotKeepsSubmissionOrder(t *testing.T) {
	const jobs = 40
	dir := t.TempDir()
	cfg := journalConfig(dir)
	s1, err := New(cfg) // not Started: every job stays queued
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for k := 0; k < jobs; k++ {
		job, err := s1.Submit(JobSpec{ID: fmt.Sprintf("order-%02d", k),
			Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: int64(k)})
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
		want = append(want, job.ID)
	}
	if err := s1.jstore.compactNow(); err != nil {
		t.Fatal(err)
	}
	s1.crashForTest()

	for round := 1; round <= 2; round++ {
		s, err := New(cfg) // replays the snapshot, then takes its own
		if err != nil {
			t.Fatal(err)
		}
		got := drainQueue(s)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("recovery %d re-enqueued\n  %v\nwant submission order\n  %v", round, got, want)
		}
		s.crashForTest()
	}
}

// TestSnapshotSkipsExpiredJobs: a compaction snapshot holds live jobs
// only; a terminal job past its TTL deadline is left out even when no
// sweep has evicted it from memory yet.
func TestSnapshotSkipsExpiredJobs(t *testing.T) {
	dir := t.TempDir()
	s := openTestJournalStore(t, dir, 0)
	now := time.Now()
	live := restoredJob("job-live", StateDone, now, now.Add(time.Hour))
	dead := restoredJob("job-expired", StateDone, now.Add(-time.Hour), now.Add(-time.Minute))
	if err := s.PutBatch([]*Job{live, dead}); err != nil {
		t.Fatal(err)
	}
	if err := s.compactNow(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v (%v), want exactly one", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(live.ID)) {
		t.Errorf("snapshot lost the live job %s", live.ID)
	}
	if bytes.Contains(raw, []byte(dead.ID)) {
		t.Errorf("snapshot kept the expired job %s", dead.ID)
	}
}

// TestTerminalJobKeepsStartedFromWAL: a job's lifecycle costs two WAL
// appends (admission and terminal record; no running record), and a
// terminal job recovered from the WAL alone — no snapshot — keeps its
// started time, which rides the terminal record.
func TestTerminalJobKeepsStartedFromWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.SnapshotEvery = -1
	s1 := startServer(t, cfg)
	job, err := s1.Submit(JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	job = waitTerminal(t, s1, job.ID, 60*time.Second)
	st, _ := s1.JournalStats()
	if st.Appends != 2 || st.Snapshots != 0 {
		t.Fatalf("journal after one job: %d appends, %d snapshots; want 2 and 0", st.Appends, st.Snapshots)
	}
	started := job.record().Started
	if started.IsZero() {
		t.Fatal("finished job has no started time")
	}
	s1.crashForTest()

	s2 := startServer(t, cfg)
	got, ok := s2.Get(job.ID)
	if !ok {
		t.Fatalf("job %s not recovered", job.ID)
	}
	if r := got.record(); r.State != StateDone || !r.Started.Equal(started) {
		t.Fatalf("recovered job: state %s, started %v; want done, started %v", r.State, r.Started, started)
	}
}

// TestReplayLegacyStartedRecord: data directories written before the
// started time moved onto the terminal record still carry kind-2
// running records; replay folds them in, and a later terminal record
// without a started time keeps the legacy one.
func TestReplayLegacyStartedRecord(t *testing.T) {
	started := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	mustEncode := func(kind byte, v any) journal.Entry {
		e, err := encodeRecord(kind, v)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	entries := []journal.Entry{
		mustEncode(recKindJob, jobRecord{ID: "a", State: StateQueued}),
		mustEncode(recKindJob, jobRecord{ID: "b", State: StateQueued}),
		mustEncode(recKindStarted, startedRecord{ID: "a", Started: started}),
		mustEncode(recKindStarted, startedRecord{ID: "b", Started: started}),
		mustEncode(recKindFinished, finishedRecord{ID: "b", State: StateDone, Finished: started.Add(time.Second)}),
	}
	recs, skipped := replayEntries(entries, t.Logf)
	if skipped != 0 || len(recs) != 2 {
		t.Fatalf("replay: %d records, %d skipped; want 2 and 0", len(recs), skipped)
	}
	if a := recs[0]; a.State != StateRunning || !a.Started.Equal(started) {
		t.Errorf("job a: state %s, started %v; want running since %v", a.State, a.Started, started)
	}
	if b := recs[1]; b.State != StateDone || !b.Started.Equal(started) {
		t.Errorf("job b: state %s, started %v; want done, started %v", b.State, b.Started, started)
	}
}

// TestCompactionAmortized: over a live set that only grows, the total
// bytes written into snapshots stay within a constant factor of the
// WAL bytes appended — compaction is amortized O(1) per appended byte,
// not O(live jobs) every few appends.
func TestCompactionAmortized(t *testing.T) {
	const jobs = 1500
	dir := t.TempDir()
	s := openTestJournalStore(t, dir, 16)
	now := time.Now()
	bids := [][]int{{1}, {2}, {3}, {3}}
	var snapshotBytes uint64
	var snapshots uint64
	note := func() {
		st := s.j.Stats()
		if st.Snapshots != snapshots {
			snapshots = st.Snapshots
			snapshotBytes += st.SnapshotBytes
		}
	}
	for k := 0; k < jobs; k++ {
		job, err := newJob(JobSpec{ID: fmt.Sprintf("grow-%05d", k), Bids: bids, W: []int{1, 2, 3}, Seed: int64(k)}, bids, now)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(job); err != nil {
			t.Fatal(err)
		}
		note()
		job.setRunning(now)
		job.finish(StateDone, &JobResult{Schedule: []int{k % 4, (k + 1) % 4}, Payments: []int64{1, 2, 3, 4}},
			nil, "", now, time.Hour)
		s.Finished(job)
		note()
	}
	wal := s.j.Stats().Bytes
	if snapshots < 2 {
		t.Fatalf("only %d snapshots over %d appends; the test needs compaction to run", snapshots, 2*jobs)
	}
	if snapshotBytes > 3*wal {
		t.Fatalf("%d snapshots wrote %d bytes for %d WAL bytes (%.1fx); want <= 3x",
			snapshots, snapshotBytes, wal, float64(snapshotBytes)/float64(wal))
	}
	t.Logf("%d snapshots wrote %d bytes for %d WAL bytes (%.2fx)",
		snapshots, snapshotBytes, wal, float64(snapshotBytes)/float64(wal))

	// Whatever the schedule, recovery still sees every job as done.
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	recs, skipped := replayEntries(rec.Entries, t.Logf)
	if len(recs) != jobs || skipped != 0 {
		t.Fatalf("replayed %d jobs (%d skipped), want %d", len(recs), skipped, jobs)
	}
	for _, r := range recs {
		if r.State != StateDone {
			t.Fatalf("job %s replayed as %s, want done", r.ID, r.State)
		}
	}
}

// TestMarshalRecordSplicesTranscript: a record's pre-encoded transcript
// is spliced in verbatim and decodes back byte for byte; a record
// without one carries no transcript member.
func TestMarshalRecordSplicesTranscript(t *testing.T) {
	tr := json.RawMessage(`{"Bid":{"W":[1,2,3]},"Auctions":[{"Lambda":[12345678901234567890]}]}`)
	for _, v := range []any{
		jobRecord{ID: "j", State: StateDone, Transcript: tr},
		finishedRecord{ID: "j", State: StateDone, Transcript: tr},
	} {
		data, err := marshalRecord(v)
		if err != nil {
			t.Fatal(err)
		}
		var back struct {
			ID         string          `json:"id"`
			Transcript json.RawMessage `json:"transcript"`
		}
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%T: spliced record does not decode: %v\n%s", v, err, data)
		}
		if back.ID != "j" || !bytes.Equal(back.Transcript, tr) {
			t.Fatalf("%T: decoded id %q transcript %s, want j and %s", v, back.ID, back.Transcript, tr)
		}
	}
	data, err := marshalRecord(jobRecord{ID: "j", State: StateDone})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("transcript")) {
		t.Fatalf("record without a transcript encodes one: %s", data)
	}
}

// TestUnjournaledFinishRerunsIdentically pins the crash gap between
// job.finish and the terminal append in runJob: a job can be seen as
// done before its terminal record is in the WAL. A crash inside that
// gap leaves only the admission record, so recovery re-enqueues the job
// as queued and re-runs it — and, the run being deterministic in its
// spec, to a byte-identical result and transcript.
func TestUnjournaledFinishRerunsIdentically(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.SnapshotEvery = -1
	s1, err := New(cfg) // not Started yet: only the admission record is written
	if err != nil {
		t.Fatal(err)
	}
	job, err := s1.Submit(JobSpec{ID: "gap", Bids: [][]int{{1, 2}, {2, 1}, {3, 3}, {3, 2}, {2, 2}},
		W: []int{1, 2, 3}, Seed: 11, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	// The WAL as a crash right after job.finish would leave it.
	gapDir := t.TempDir()
	copyJournalFiles(t, dir, gapDir)

	s1.Start()
	done := waitTerminal(t, s1, job.ID, 60*time.Second)
	wantResult, wantTranscript := resultBytes(t, done), done.transcriptJSON()
	if done.State() != StateDone || len(wantTranscript) == 0 {
		t.Fatalf("first run: state %s, %d transcript bytes; want done with a transcript", done.State(), len(wantTranscript))
	}
	s1.crashForTest()

	s2, err := New(journalConfig(gapDir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.crashForTest)
	if got, ok := s2.Get(job.ID); !ok || got.State() != StateQueued {
		t.Fatalf("recovered job: found %v; want it queued", ok)
	}
	s2.Start()
	rerun := waitTerminal(t, s2, job.ID, 60*time.Second)
	if got := resultBytes(t, rerun); !bytes.Equal(got, wantResult) {
		t.Errorf("re-run result differs:\n  got  %s\n  want %s", got, wantResult)
	}
	if got := rerun.transcriptJSON(); !bytes.Equal(got, wantTranscript) {
		t.Errorf("re-run transcript differs:\n  got  %s\n  want %s", got, wantTranscript)
	}
}

// resultBytes is the job's result as JSON.
func resultBytes(t *testing.T, job *Job) []byte {
	t.Helper()
	b, err := json.Marshal(job.record().Result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// copyJournalFiles copies the journal's segment and snapshot files
// (not its LOCK file) from src to dst.
func copyJournalFiles(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
