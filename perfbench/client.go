package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmw/internal/obs"
	"dmw/internal/server"
	"dmw/internal/tenant"
)

// client talks to the deployment's public HTTP API over at most conns
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body.
func (c *client) do(method, path string, in any) (int, []byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// submit POSTs one job spec; anything but 202 Accepted is an error.
func (c *client) submit(spec server.JobSpec) error {
	status, body, err := c.do(http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("submit %s: %d %s", spec.ID, status, truncate(body))
	}
	return nil
}

// submitBatch POSTs specs to the batch endpoint and returns one item
// per spec, positionally aligned.
func (c *client) submitBatch(specs []server.JobSpec) ([]server.BatchItem, error) {
	status, body, err := c.do(http.MethodPost, "/v1/jobs/batch", specs)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("batch submit: %d %s", status, truncate(body))
	}
	var items []server.BatchItem
	if err := json.Unmarshal(body, &items); err != nil {
		return nil, fmt.Errorf("batch submit: %w", err)
	}
	if len(items) != len(specs) {
		return nil, fmt.Errorf("batch submit: %d items for %d specs", len(items), len(specs))
	}
	return items, nil
}

// job GETs a job view; wait > 0 long-polls until the job is terminal.
func (c *client) job(id string, wait time.Duration) (*server.JobView, error) {
	path := "/v1/jobs/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	status, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("get %s: %d %s", id, status, truncate(body))
	}
	var v server.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("get %s: %w", id, err)
	}
	return &v, nil
}

// transcript GETs a job's audit envelope.
func (c *client) transcript(id string) ([]byte, error) {
	status, body, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/transcript", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("transcript %s: %d %s", id, status, truncate(body))
	}
	return body, nil
}

// trace GETs a traced job's spans.
func (c *client) trace(id string) ([]obs.Span, error) {
	status, body, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("trace %s: %d %s", id, status, truncate(body))
	}
	return obs.ReadJSONL(bytes.NewReader(body))
}

// scrape reads /metrics into series -> value. Histogram buckets are
// kept like any other series; callers read the _sum and _count series.
func (c *client) scrape() (map[string]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: %d", status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// eventStream consumes the deployment's /v1/events firehose on its own
// connection and hands every event to the tracker.
type eventStream struct {
	cancel context.CancelFunc
	done   chan struct{}
}

func openEvents(base string, tr *tracker) (*eventStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("event stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("event stream: %d", resp.StatusCode)
	}
	es := &eventStream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(es.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			var ev tenant.Event
			if json.Unmarshal(line[len("data: "):], &ev) == nil {
				tr.onEvent(ev, time.Now())
			}
		}
	}()
	return es, nil
}

// Close ends the stream and waits for its reader to exit.
func (es *eventStream) Close() {
	es.cancel()
	<-es.done
}

// jobRec is everything the benchmark learns about one job it sent.
type jobRec struct {
	id   string
	bids [][]int
	// due is when the job was meant to be sent (open loop) or was sent
	// (closed loop); latency runs from due to seen.
	due  time.Time
	sent time.Time

	mu     sync.Mutex
	seen   time.Time          // terminal state first observed by the client
	phases map[string]float64 // dmw phase durations from the events, ms
	// fallback marks a job whose terminal event never arrived, so a GET
	// observed its terminal state instead.
	fallback bool

	refused bool   // 429/503 or transport error at submit
	err     string // first failure: refused, wrong outcome, audit finding
	view    *server.JobView
	spans   []obs.Span
}

func (r *jobRec) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == "" {
		r.err = fmt.Sprintf(format, args...)
	}
}

func (r *jobRec) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != ""
}

// markSeen records the first observation of the job's terminal state.
func (r *jobRec) markSeen(at time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.seen.IsZero() {
		return false
	}
	r.seen = at
	return true
}

func (r *jobRec) latencyMS() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ms(r.seen.Sub(r.due))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracker routes event-stream observations to the jobs the benchmark
// registered.
type tracker struct {
	mu      sync.Mutex
	jobs    map[string]*jobRec
	changed chan struct{} // closed and replaced on every terminal event
}

func newTracker() *tracker {
	return &tracker{jobs: make(map[string]*jobRec), changed: make(chan struct{})}
}

func (t *tracker) add(r *jobRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs[r.id] = r
}

func (t *tracker) onEvent(ev tenant.Event, at time.Time) {
	t.mu.Lock()
	r := t.jobs[ev.JobID]
	t.mu.Unlock()
	if r == nil {
		return
	}
	switch {
	case ev.Type == tenant.EventPhase:
		r.mu.Lock()
		if r.phases == nil {
			r.phases = make(map[string]float64, 6)
		}
		r.phases[ev.Phase] = ev.DurationMS
		r.mu.Unlock()
	case tenant.TerminalEvent(ev.Type):
		if r.markSeen(at) {
			t.mu.Lock()
			close(t.changed)
			t.changed = make(chan struct{})
			t.mu.Unlock()
		}
	}
}

// waitTerminal blocks until every rec is terminal or the deadline
// passes; it reports how many are still outstanding.
func (t *tracker) waitTerminal(recs []*jobRec, deadline time.Time) int {
	for {
		left := 0
		for _, r := range recs {
			r.mu.Lock()
			if r.seen.IsZero() && !r.refused {
				left++
			}
			r.mu.Unlock()
		}
		if left == 0 {
			return 0
		}
		t.mu.Lock()
		ch := t.changed
		t.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return left
		}
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		select {
		case <-ch:
		case <-time.After(wait):
		}
	}
}
