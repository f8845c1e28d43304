package main

// metric is one named measurement as the result file and the last stdout
// line carry it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. BENCHMARK.json additionally fixes
// direction and regression bound for the end-to-end ones; a test keeps the
// two lists identical.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees; every workload
// reports every one of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"capacity_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_req", "us"},
	{"rss_peak_mb", "MB"},
	{"train_s", "s"},
	{"eval_krps", "1000/s"},
	{"train_rss_peak_mb", "MB"},
	{"detect_tpr", "ratio"},
}

// perLayerMetrics are printed by a -trace run; layer = package name.
var perLayerMetrics = []metricDef{
	{"normalize.ns_per_op", "ns"},
	{"normalize.bytes_per_op", "B"},
	{"normalize.allocs_per_op", "count"},
	{"acmatch.scan_ns_per_op", "ns"},
	{"acmatch.hits_per_op", "count"},
	{"feature.sparse_ns_per_op", "ns"},
	{"feature.self_ns_per_op", "ns"},
	{"feature.nonzeros_per_op", "count"},
	{"feature.regex_evaluated_per_op", "count"},
	{"feature.regex_skipped_per_op", "count"},
	{"feature.gate_skip_ratio", "ratio"},
	{"core.score_ns_per_op", "ns"},
	{"core.inspect_ns_per_op", "ns"},
	{"core.inspect_p99_ns", "ns"},
	{"core.inspect_self_ns_per_op", "ns"},
	{"core.inspect_allocs_per_op", "count"},
	{"core.alert_ratio", "ratio"},
	{"core.train_ms", "ms"},
	{"core.train_self_ms", "ms"},
	{"core.save_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.artifact_bytes", "B"},
	{"core.signatures", "count"},
	{"core.observed_features", "count"},
	{"admission.check_ns_per_op", "ns"},
	{"admission.allocs_per_op", "count"},
	{"admission.tracked_callers", "count"},
	{"admission.evictions", "count"},
	{"gateway.serve_ns_per_op", "ns"},
	{"gateway.serve_p99_ns", "ns"},
	{"gateway.self_ns_per_op", "ns"},
	{"gateway.allocs_per_op", "count"},
	{"gateway.bytes_per_op", "B"},
	{"fleet.serve_ns_per_op", "ns"},
	{"fleet.front_self_ns_per_op", "ns"},
	{"fleet.allocs_per_op", "count"},
	{"psigened.rtt_p50_us", "us"},
	{"psigened.transport_self_us", "us"},
	{"psigened.reload_ms", "ms"},
	{"psigened.forwarded", "count"},
	{"psigened.blocked", "count"},
	{"psigened.shed", "count"},
	{"psigened.score_p50_us", "us"},
	{"psigened.score_p99_us", "us"},
	{"psigened.tracked_callers", "count"},
	{"psigened.evictions", "count"},
	{"driver.direct_rtt_p50_us", "us"},
	{"driver.cpu_us_per_req", "us"},
	{"driver.latency_p99_us", "us"},
	{"driver.latency_p99_samples", "count"},
	{"driver.latency_p999_us", "us"},
	{"driver.latency_p999_beyond", "count"},
	{"driver.clock_ns", "ns"},
	{"driver.traced_capacity_rps", "1/s"},
	{"driver.calm_capacity_rps", "1/s"},
	{"driver.openloop_rate_rps", "1/s"},
	{"driver.openloop_p50_us", "us"},
	{"driver.openloop_p99_us", "us"},
	{"driver.openloop_lag_p99_us", "us"},
	{"attackgen.generate_ms", "ms"},
	{"traffic.generate_ms", "ms"},
	{"normalize.corpus_ms", "ms"},
	{"feature.featurize_ms", "ms"},
	{"feature.matrix_nnz", "count"},
	{"cluster.run_ms", "ms"},
	{"ids.evaluate_ms", "ms"},
	{"ids.detect_fpr", "ratio"},
}

// collect turns measured values into the named, unit-carrying metric map,
// failing on any metric the run did not produce.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, missing
}
