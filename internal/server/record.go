package server

import (
	"encoding/json"
	"fmt"
	"time"

	"dmw/internal/journal"
)

// Journal record kinds. The journal itself is payload-agnostic; these
// tags define dmwd's job-lifecycle log:
//
//	recKindJob      full job record — admission (state queued or
//	                rejected) and every snapshot entry
//	recKindStarted  legacy, read-only: queued -> running transition
//	                {id, started}. No longer written — recovery turns
//	                a non-terminal job back into queued anyway, and the
//	                started time of a terminal job rides its finished
//	                record — but still replayed so older data
//	                directories recover.
//	recKindFinished terminal transition {id, state, result, error,
//	                started, finished, expires}
//
// The admission append for a job always precedes its lifecycle appends
// (Submit journals before the job reaches the worker queue), but
// recovery still tolerates unknown-ID lifecycle records defensively:
// they are logged and skipped.
const (
	recKindJob      byte = 1
	recKindStarted  byte = 2
	recKindFinished byte = 3
)

// jobRecord is the durable form of a Job. Timestamps are absolute so
// the TTL clock survives restarts: Expires is measured from completion,
// not from recovery (see the store contract in store.go). Transcripts
// ride the terminal record (Transcript is nil until completion and for
// unrecorded jobs), so a transcript the client was told exists survives
// kill -9 exactly like the result does; jobRecord is also the
// replication payload the owner pushes to its ring successors (see
// internal/replica), which is how a read finds the transcript after the
// owner dies for good.
type jobRecord struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	Bids  [][]int  `json:"bids"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`

	Result     *JobResult      `json:"result,omitempty"`
	Transcript json.RawMessage `json:"transcript,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Expires   time.Time `json:"expires,omitempty"`
}

// startedRecord is the legacy queued -> running record (replay only).
type startedRecord struct {
	ID      string    `json:"id"`
	Started time.Time `json:"started"`
}

// finishedRecord journals a terminal transition.
type finishedRecord struct {
	ID         string          `json:"id"`
	State      JobState        `json:"state"`
	Result     *JobResult      `json:"result,omitempty"`
	Transcript json.RawMessage `json:"transcript,omitempty"`
	Error      string          `json:"error,omitempty"`
	Started    time.Time       `json:"started,omitempty"`
	Finished   time.Time       `json:"finished"`
	Expires    time.Time       `json:"expires"`
}

// record snapshots the job into its durable form.
func (j *Job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobRecord{
		ID:         j.ID,
		Spec:       j.Spec,
		Bids:       j.bids,
		State:      j.state,
		Error:      j.errMsg,
		Result:     j.result,
		Transcript: j.transcript,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
		Expires:    j.expires,
	}
}

// jobFromRecord rebuilds a Job from its durable form. Non-terminal
// records (queued or running at crash time) come back as queued — the
// server re-enqueues them; the protocol run is deterministic in the
// spec and seed, so a re-run yields a byte-identical result. Terminal
// records keep their original completion time and TTL deadline.
func jobFromRecord(r jobRecord) *Job {
	j := &Job{
		ID:        r.ID,
		Spec:      r.Spec,
		bids:      r.Bids,
		submitted: r.Submitted,
		done:      make(chan struct{}),
	}
	if r.State.Terminal() {
		j.state = r.State
		j.errMsg = r.Error
		j.result = r.Result
		j.transcript = r.Transcript
		j.started = r.Started
		j.finished = r.Finished
		j.expires = r.Expires
		close(j.done)
	} else {
		j.state = StateQueued
	}
	return j
}

// applyStarted / applyFinished fold lifecycle records onto a replayed
// job record during recovery.
func (r *jobRecord) applyStarted(sr startedRecord) {
	if !r.State.Terminal() {
		r.State = StateRunning
		r.Started = sr.Started
	}
}

func (r *jobRecord) applyFinished(fr finishedRecord) {
	if r.State.Terminal() {
		return
	}
	r.State = fr.State
	r.Result = fr.Result
	r.Transcript = fr.Transcript
	r.Error = fr.Error
	if !fr.Started.IsZero() { // zero in records written before it rode here
		r.Started = fr.Started
	}
	r.Finished = fr.Finished
	r.Expires = fr.Expires
}

// encodeRecord marshals v into a journal entry of the given kind.
func encodeRecord(kind byte, v any) (journal.Entry, error) {
	data, err := marshalRecord(v)
	if err != nil {
		return journal.Entry{}, fmt.Errorf("server: encoding journal record: %w", err)
	}
	return journal.Entry{Kind: kind, Data: data}, nil
}

// marshalRecord is json.Marshal, except that the transcript of a job or
// finished record — already JSON, and most of a recorded job's bytes —
// is spliced in verbatim: json.Marshal would re-validate it byte by
// byte, which costs an order of magnitude more than encoding the rest
// of the record, and snapshot compaction re-encodes every retained job
// while appends wait.
func marshalRecord(v any) ([]byte, error) {
	var tr json.RawMessage
	switch r := v.(type) {
	case jobRecord:
		tr, r.Transcript = r.Transcript, nil
		v = r
	case finishedRecord:
		tr, r.Transcript = r.Transcript, nil
		v = r
	}
	data, err := json.Marshal(v)
	if err != nil || len(tr) == 0 {
		return data, err
	}
	// data is a JSON object with at least an id: reopen it.
	data = append(data[:len(data)-1], `,"transcript":`...)
	data = append(data, tr...)
	return append(data, '}'), nil
}

// replayEntries folds a recovery's entry stream into the final
// per-job records, preserving first-submission order. Unknown-ID
// lifecycle records are counted in skipped (and logged by the caller).
func replayEntries(entries []journal.Entry, logf func(string, ...any)) (ordered []*jobRecord, skipped int) {
	byID := make(map[string]*jobRecord)
	for _, e := range entries {
		switch e.Kind {
		case recKindJob:
			var r jobRecord
			if err := json.Unmarshal(e.Data, &r); err != nil {
				logf("recovery: skipping undecodable job record: %v", err)
				skipped++
				continue
			}
			if prev, ok := byID[r.ID]; ok {
				*prev = r // later full record (e.g. snapshot) wins
			} else {
				rc := r
				byID[r.ID] = &rc
				ordered = append(ordered, &rc)
			}
		case recKindStarted:
			var sr startedRecord
			if err := json.Unmarshal(e.Data, &sr); err != nil {
				logf("recovery: skipping undecodable started record: %v", err)
				skipped++
				continue
			}
			r, ok := byID[sr.ID]
			if !ok {
				logf("recovery: started record for unknown job %s (out-of-order crash artifact); skipping", sr.ID)
				skipped++
				continue
			}
			r.applyStarted(sr)
		case recKindFinished:
			var fr finishedRecord
			if err := json.Unmarshal(e.Data, &fr); err != nil {
				logf("recovery: skipping undecodable finished record: %v", err)
				skipped++
				continue
			}
			r, ok := byID[fr.ID]
			if !ok {
				logf("recovery: finished record for unknown job %s (out-of-order crash artifact); skipping", fr.ID)
				skipped++
				continue
			}
			r.applyFinished(fr)
		default:
			logf("recovery: skipping record of unknown kind %d", e.Kind)
			skipped++
		}
	}
	return ordered, skipped
}
