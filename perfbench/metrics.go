package main

import (
	"fmt"
	"strings"

	"dmw/internal/obs"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the untraced metrics every workload reports and
// BENCHMARK.json gates. throughput_jobs_s is, on the closed loops, the
// verified jobs per second of the main phase and, on fleet-open, the
// goodput of a step offered more than the fleet's capacity.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_jobs_s", "jobs/s", "higher", 0.25},
	{"latency_p50_ms.low", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// reportedOnly are end-to-end metrics every untraced run prints but
// BENCHMARK.json does not gate: on a 2-vCPU virtual machine whose speed
// swings in bursts, their spread over ten runs (quartile distance
// over median) reached 0.25 to 1.0 on fleet-open, beyond the 0.25 a
// bound may be. The open loop's queue and the tail amplify the bursts.
var reportedOnly = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0},
	{"latency_p99_ms", "ms", "lower", 0},
	{"max_rate_at_slo_jobs_s", "jobs/s", "higher", 0},
	{"failed_frac", "frac", "lower", 0},
}

// perLayer are the traced-run metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"gateway.submit_ack_ms_p50", "ms", "lower", 0},
	{"gateway.submit_ack_ms_p99", "ms", "lower", 0},
	{"gateway.submit_ack_ms_p50.low", "ms", "lower", 0},
	{"gateway.submit_batch_size_mean", "jobs", "higher", 0},
	{"gateway.failovers", "count", "lower", 0},
	{"wire.fallbacks", "count", "lower", 0},
	{"edge.hop_ms_p50", "ms", "lower", 0},
	{"edge.hop_ms_p50.low", "ms", "lower", 0},
	{"server.queue_wait_ms_p50", "ms", "lower", 0},
	{"server.queue_wait_ms_p99", "ms", "lower", 0},
	{"server.finish_ms_p50", "ms", "lower", 0},
	{"server.shed_frac", "frac", "lower", 0},
	{"server.events_dropped", "count", "lower", 0},
	{"server.read_ms_p50", "ms", "lower", 0},
	{"dmw.init_ms_p50", "ms", "lower", 0},
	{"dmw.bidding_ms_p50", "ms", "lower", 0},
	{"dmw.allocation_ms_p50", "ms", "lower", 0},
	{"dmw.settlement_ms_p50", "ms", "lower", 0},
	{"dmw.finalize_ms_p50", "ms", "lower", 0},
	{"commit.verify_ms_p50", "ms", "lower", 0},
	{"commit.verify_ms_p50.low", "ms", "lower", 0},
	{"commit.lambda_psi_ms_p50", "ms", "lower", 0},
	{"commit.disclosure_ms_p50", "ms", "lower", 0},
	{"commit.verify_batch_items_mean", "items", "higher", 0},
	{"commit.verify_batch_items_mean.low", "items", "higher", 0},
	{"group.multiexps_per_job", "count", "lower", 0},
	{"group.multiexp_terms_per_job", "count", "lower", 0},
	{"group.exps_per_job", "count", "lower", 0},
	{"group.muls_per_job", "count", "lower", 0},
	{"transport.msgs_per_job", "count", "lower", 0},
	{"transport.wire_bytes_per_job", "bytes", "lower", 0},
	{"transport.rounds_per_job", "count", "lower", 0},
	{"journal.fsyncs_per_job", "count", "lower", 0},
	{"journal.appends_per_job", "count", "lower", 0},
	{"journal.bytes_per_job", "bytes", "lower", 0},
	{"journal.batch_ack_ms_p50", "ms", "lower", 0},
	{"runtime.alloc_kb_per_job", "kB", "lower", 0},
	{"runtime.gc_cycles_per_job", "count", "lower", 0},
	{"loadgen.send_lag_ms_p99", "ms", "lower", 0},
	{"trace.overhead_ms_p50", "ms", "lower", 0},
	{"unattributed_ms_p50", "ms", "lower", 0},
}

// report collects metric values in declaration order, each with an
// optional note for the human-readable lines.
type report struct {
	defs   []metricDef
	values map[string]float64
	notes  map[string]string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: make(map[string]float64), notes: make(map[string]string)}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// missing lists declared metrics the run did not set.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

func (r *report) lines() string {
	var sb strings.Builder
	for _, d := range r.defs {
		fmt.Fprintf(&sb, "  %-36s %14.4f %-6s %s\n", d.name, r.values[d.name], d.unit, r.notes[d.name])
	}
	return sb.String()
}

// jsonMetrics is the "metrics" object of the result line.
func (r *report) jsonMetrics() map[string]map[string]any {
	out := make(map[string]map[string]any, len(r.defs))
	for _, d := range r.defs {
		out[d.name] = map[string]any{"value": r.values[d.name], "unit": d.unit}
	}
	return out
}

// selfTimes sums, per span name, the self time of a job's spans: each
// span's duration minus the part of it its children cover.
func selfTimes(spans []obs.Span) map[string]float64 {
	children := make(map[obs.SpanID][]obs.Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := coveredUS(s, children[s.ID])
		out[s.Name] += float64(s.DurUS-covered) / 1000
	}
	return out
}

// coveredUS is how many microseconds of parent the union of the child
// intervals covers.
func coveredUS(parent obs.Span, kids []obs.Span) int64 {
	lo, hi := parent.StartUS, parent.StartUS+parent.DurUS
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartUS, lo), min(k.StartUS+k.DurUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a span has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
