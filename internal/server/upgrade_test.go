package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// What a frame-speaking build (one that predates JSON-only fleets)
// sends and watches for: a one-job spec frame and a one-record replica
// frame, byte for byte as that build's encoder wrote them, and the
// capability header it expects on every answer from a peer that
// understood a frame.
const (
	legacyWireHeader  = "X-DMW-Wire"
	legacyJobFrame    = "DW\x01\x01\x00\x00\x00\x01\x00\x04up-1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x04\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03"
	legacyRecordFrame = "DW\x01\x03\x00\x00\x00\x01\x00\x04up-r\x00\x03old\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x02{}"
)

// TestLegacyFrameBodiesRefusedForFallback pins the rolling-upgrade
// contract with frame-speaking peers. Such a gateway or replicator
// posts a binary frame first and falls back to JSON (pinning it) when
// the answer is a 400 WITHOUT the capability header. A
// JSON-only dmwd must give exactly that answer on every endpoint those
// peers framed, and must neither admit a job nor store a record from
// the refused body.
func TestLegacyFrameBodiesRefusedForFallback(t *testing.T) {
	s, ts := startHTTP(t, testConfig())
	for _, c := range []struct {
		path, contentType, body string
	}{
		{"/v1/jobs", "application/x-dmw-jobs", legacyJobFrame},
		{"/v1/jobs/batch", "application/x-dmw-jobs", legacyJobFrame},
		{"/v1/replica/records", "application/x-dmw-records", legacyRecordFrame},
	} {
		resp, err := http.Post(ts.URL+c.path, c.contentType, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", c.path, resp.StatusCode, raw)
		}
		if h := resp.Header.Get(legacyWireHeader); h != "" {
			t.Errorf("%s: answered with %s: %s; a frame-speaking peer would not fall back to JSON", c.path, legacyWireHeader, h)
		}
	}
	for _, id := range []string{"up-1", "up-r"} {
		if _, ok := s.lookupJob(id); ok {
			t.Errorf("job %s is readable after its frame body was refused", id)
		}
	}
	if n := s.replStore.Len(); n != 0 {
		t.Errorf("replica store holds %d records after a refused record frame, want 0", n)
	}
	var metrics strings.Builder
	s.WriteMetrics(&metrics)
	for _, line := range []string{"dmwd_jobs_accepted_total 0\n", "dmwd_jobs_rejected_total 0\n", "dmwd_jobs_live 0\n"} {
		if !strings.Contains(metrics.String(), line) {
			t.Errorf("metrics lack %q after refused frame bodies", strings.TrimSpace(line))
		}
	}
}
