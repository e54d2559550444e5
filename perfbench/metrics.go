package main

import (
	"strings"

	"repro/internal/transport"
)

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (checked by benchmark_json_test.go).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload. An
// operation is a training round (fl_train), one X-layer aggregation
// (xlayer_10k) or one failover trial (failover).
var endToEnd = []metricDef{
	{"round_s_p50", "s"},
	{"round_s_p90", "s"},
	{"ops_per_s", "1/s"},
	{"bytes_per_round", "B"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of a traced run. Each is a mean per timed
// operation unless its name says otherwise; a layer the workload
// bypasses reads 0.
var perLayer = []metricDef{
	// Local training (tensor/nn/optim under fl.Client), fl_train.
	{"fl.train_s", "s"},
	{"fl.train_idle_share", "ratio"},
	{"fl.weights_copy_s", "s"},
	// Aggregation (core/sac/secretshare/fl).
	{"core.aggregate_s", "s"},
	{"sac.share_s", "s"},
	{"sac.subtotal_s", "s"},
	{"sac.finish_s", "s"},
	{"core.fedavg_s", "s"},
	{"sac.shares_sent", "count"},
	{"sac.subtotals_recovered", "count"},
	{"sac.peers_crashed", "count"},
	{"transport.bytes.sac_share", "B"},
	{"transport.bytes.sac_subtotal", "B"},
	{"transport.bytes.sac_recovery-req", "B"},
	{"transport.bytes.sac_recovery", "B"},
	{"transport.bytes.fedavg_upload", "B"},
	{"transport.bytes.fedavg_download", "B"},
	{"transport.bytes.fedavg_broadcast", "B"},
	// Go runtime.
	{"runtime.alloc_mb.train", "MB"},
	{"runtime.alloc_mb.aggregate", "MB"},
	{"runtime.allocs_per_round", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.peak_rss_mb", "MB"},
	// X-layer, xlayer_10k.
	{"core.sac_runs", "count"},
	{"core.round_s_per_sac", "s"},
	// Two-layer Raft on the simulator, failover.
	{"cluster.new_s", "s"},
	{"cluster.bootstrap_s", "s"},
	{"cluster.steady_s", "s"},
	{"cluster.recover_s", "s"},
	{"simnet.msgs", "count"},
	{"simnet.bytes", "B"},
	{"raft.entries_committed", "count"},
	{"raft.elections_started", "count"},
	{"raft.elections_won", "count"},
	{"raft.election_win_ratio", "ratio"},
	// Set-up (medians over the repeated set-ups), fl_train.
	{"dataset.generate_s", "s"},
	{"nn.build_s", "s"},
	// Workload-specific results (see README.md): the final model's
	// held-out loss on fl_train, and virtual failover times on failover.
	{"nn.test_loss", "nats"},
	{"cluster.failover_ms_p50", "ms"},
	{"cluster.failover_ms_p95", "ms"},
	// Time spent per operation in the tracer and its instrumentation.
	{"trace.overhead_s", "s"},
}

// layerName maps a program telemetry name to its metric name:
// "sac/shares_sent" → "sac.shares_sent", "sac/phase_share_us" →
// "sac.share_s" (the histograms are converted to seconds).
func layerName(name string) string {
	name = strings.ReplaceAll(name, "/", ".")
	if rest, ok := strings.CutPrefix(name, "sac.phase_"); ok {
		return "sac." + strings.TrimSuffix(rest, "_us") + "_s"
	}
	return name
}

// kindBytes copies the traffic counter's bytes by message kind.
func kindBytes(c *transport.Counter) map[string]int64 {
	out := map[string]int64{}
	for _, k := range c.Kinds() {
		out[k] = c.Bytes(k)
	}
	return out
}

// addKindBytes records the per-kind traffic between two kindBytes
// readings as transport.bytes.<kind> metrics.
func addKindBytes(v map[string]float64, before, after map[string]int64) {
	for k, b := range after {
		v["transport.bytes."+strings.ReplaceAll(k, "/", "_")] = float64(b - before[k])
	}
}

// meanOf averages each key over a list of per-operation readings.
func meanOf(rows []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, row := range rows {
		for k, v := range row {
			out[k] += v / float64(len(rows))
		}
	}
	return out
}

// timedOps lists the ids of n timed operations starting at first.
func timedOps(first, n int) []int {
	ops := make([]int, n)
	for i := range ops {
		ops[i] = first + i
	}
	return ops
}

// meanAt averages m over the given operation ids (absent ids read 0).
func meanAt(m map[int]float64, ops []int) float64 {
	t := 0.0
	for _, op := range ops {
		t += m[op]
	}
	return t / float64(len(ops))
}
