package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmw/internal/tenant"
)

// postBatch POSTs a JSON array of specs and decodes the item list.
func postBatch(t *testing.T, ts *httptest.Server, specs any) (int, []BatchItem, apiError) {
	t.Helper()
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []BatchItem
	var apiErr apiError
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&items); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
	} else {
		_ = dec.Decode(&apiErr)
	}
	return resp.StatusCode, items, apiErr
}

// TestHTTPBatchSubmit submits a mixed batch (valid and invalid specs)
// and checks admission is per-item and positionally aligned: one bad
// spec never fails the batch, and every accepted job runs to a result.
func TestHTTPBatchSubmit(t *testing.T) {
	_, ts := startHTTP(t, testConfig())

	specs := []JobSpec{
		{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 1},
		{}, // invalid: no bids, no random spec
		{Random: &RandomSpec{Agents: 5, Tasks: 2}, W: []int{1, 2, 3}, Seed: 2},
		{Random: &RandomSpec{Agents: 999, Tasks: 2}, W: []int{1, 2, 3}}, // over MaxAgents
		{Bids: [][]int{{2}, {1}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 3},
	}
	status, items, _ := postBatch(t, ts, specs)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if len(items) != len(specs) {
		t.Fatalf("got %d items, want %d (positional alignment)", len(items), len(specs))
	}
	wantAccepted := []bool{true, false, true, false, true}
	for i, it := range items {
		if it.Accepted != wantAccepted[i] {
			t.Errorf("item %d: accepted=%v (%s), want %v", i, it.Accepted, it.Error, wantAccepted[i])
		}
		if it.Accepted && (it.Job == nil || it.Job.ID == "") {
			t.Errorf("item %d: accepted but no job view", i)
		}
		if !it.Accepted && it.Error == "" {
			t.Errorf("item %d: rejected without an error message", i)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Accepted jobs complete and are fetchable like singles.
	for i, it := range items {
		if !it.Accepted {
			continue
		}
		var view JobView
		if st := getJSON(t, ts.URL+"/v1/jobs/"+it.Job.ID+"?wait=30s", &view); st != http.StatusOK {
			t.Fatalf("item %d: GET status %d", i, st)
		}
		if view.State != StateDone {
			t.Errorf("item %d: state %s (%s), want done", i, view.State, view.Error)
		}
	}
}

// TestHTTPBatchQueueFull pins per-item backpressure: with a bounded
// queue and no workers draining it, a batch larger than the queue gets
// exactly QueueDepth acceptances and queue-full rejections for the
// rest — each rejection still carrying a consistent job view.
func TestHTTPBatchQueueFull(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s, err := New(cfg) // deliberately not Started: nothing drains the queue
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := make([]JobSpec, 5)
	for k := range specs {
		specs[k] = JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: int64(k)}
	}
	status, items, _ := postBatch(t, ts, specs)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (admission is per-item)", status)
	}
	var accepted, rejected int
	for i, it := range items {
		if it.Accepted {
			accepted++
			continue
		}
		rejected++
		if !strings.Contains(it.Error, ErrQueueFull.Error()) {
			t.Errorf("item %d: error %q, want queue-full", i, it.Error)
		}
		if it.Job == nil || it.Job.State != StateRejected {
			t.Errorf("item %d: rejected item should carry a rejected job view, got %+v", i, it.Job)
		}
	}
	if accepted != cfg.QueueDepth || rejected != len(specs)-cfg.QueueDepth {
		t.Errorf("accepted %d rejected %d, want %d and %d", accepted, rejected, cfg.QueueDepth, len(specs)-cfg.QueueDepth)
	}
}

// TestHTTPBatchErrors covers the batch 4xx surface: malformed JSON,
// empty arrays, and batches over the size cap are rejected whole.
func TestHTTPBatchErrors(t *testing.T) {
	_, ts := startHTTP(t, testConfig())

	resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", strings.NewReader("{not an array"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	if status, _, apiErr := postBatch(t, ts, []JobSpec{}); status != http.StatusBadRequest || apiErr.Error == "" {
		t.Errorf("empty batch: status %d (%q), want 400 with message", status, apiErr.Error)
	}

	over := make([]JobSpec, maxBatchJobs+1)
	for k := range over {
		over[k] = JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}}
	}
	if status, _, apiErr := postBatch(t, ts, over); status != http.StatusBadRequest || !strings.Contains(apiErr.Error, fmt.Sprint(maxBatchJobs)) {
		t.Errorf("oversize batch: status %d (%q), want 400 naming the limit", status, apiErr.Error)
	}
}

// TestBatchAmortizesFsync pins the durability fast path: a batch of N
// admissions under fsync=always costs N journal appends but a single
// fsync (one AppendBatch per request), not one fsync per job.
func TestBatchAmortizesFsync(t *testing.T) {
	cfg := journalConfig(t.TempDir())
	cfg.QueueDepth = 64
	s, err := New(cfg) // not Started: only admission appends hit the WAL
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	before, ok := s.JournalStats()
	if !ok {
		t.Fatal("journal stats unavailable on a journal-backed server")
	}
	const n = 8
	specs := make([]JobSpec, n)
	for k := range specs {
		specs[k] = JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: int64(k)}
	}
	items := s.SubmitBatch(specs)
	for i, it := range items {
		if !it.Accepted {
			t.Fatalf("item %d rejected: %s", i, it.Error)
		}
	}
	after, _ := s.JournalStats()
	if got := after.Appends - before.Appends; got != n {
		t.Errorf("appends grew by %d, want %d (one record per admission)", got, n)
	}
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("fsyncs grew by %d, want 1 (amortized across the batch)", got)
	}
}

// TestBatchItemStatuses pins the per-item status/guidance fields on the
// JSON batch path: 429 items carry the refusing gate's own RetryAfter
// and price, 503 items the queue-drain guidance.
func TestBatchItemStatuses(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{"throttled": {Rate: 0.001, Burst: 1, Quota: -1, Weight: 1}},
	}
	_, ts := startHTTP(t, cfg)

	specs := []JobSpec{
		{ID: "ok-1", Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 1},
		{ID: "th-1", Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 2, Tenant: "throttled"},
		{ID: "th-2", Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 3, Tenant: "throttled"},
	}
	status, items, _ := postBatch(t, ts, specs)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if items[0].Status != http.StatusAccepted {
		t.Errorf("accepted item: status %d, want 202", items[0].Status)
	}
	// The throttled tenant has burst 1: its first spec is admitted, the
	// second refused by the token bucket with derived guidance.
	if items[1].Status != http.StatusAccepted {
		t.Errorf("first throttled item: status %d (%s), want 202", items[1].Status, items[1].Error)
	}
	it := items[2]
	if it.Status != http.StatusTooManyRequests {
		t.Fatalf("second throttled item: status %d (%s), want 429", it.Status, it.Error)
	}
	if it.RetryAfterSec < 1 {
		t.Errorf("429 item: retry_after_seconds %d, want >= 1", it.RetryAfterSec)
	}
	if it.Job != nil {
		t.Errorf("429 item carries a job view; per-tenant refusals must not create records")
	}
}
