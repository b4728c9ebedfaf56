package main

import "time"

// layerInputs is what the per-layer metrics are computed from: the traced
// run's operation and span durations, the program's own counters before
// and after the timed part, and both runs' end-to-end metrics.
type layerInputs struct {
	durs          map[string][]time.Duration
	before, after snapshot
	ops           float64
	plain, traced map[string]metric
}

func (in layerInputs) p50(name string) time.Duration { return quantile(in.durs[name], 0.5) }
func (in layerInputs) p99(name string) time.Duration { return quantile(in.durs[name], 0.99) }

// delta is the change of a counter, or of a histogram's sample count.
func (in layerInputs) delta(key string) float64 {
	a, b := in.after[key], in.before[key]
	if a.Kind == "histogram" {
		return float64(a.Count - b.Count)
	}
	return float64(a.Value - b.Value)
}

// sumDelta is the change of a histogram's sample sum.
func (in layerInputs) sumDelta(key string) float64 {
	return float64(in.after[key].Sum - in.before[key].Sum)
}

// histP50 is a histogram's median over the whole traced process, set-up
// included (the registry keeps no per-interval buckets).
func (in layerInputs) histP50(key string) float64 { return in.after[key].P50 }

// busiest returns the key of the series named name whose sample count
// grew most during the timed part.
func (in layerInputs) busiest(name string) string {
	best, bestN := "", -1.0
	for k, s := range in.after {
		if s.Name == name {
			if n := in.delta(k); n > bestN {
				best, bestN = k, n
			}
		}
	}
	return best
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overhead is how much worse the traced run's value is than the plain
// run's, in percent of the plain value.
func (in layerInputs) overhead(name string, higherIsBetter bool) float64 {
	p, t := in.plain[name].Value, in.traced[name].Value
	if higherIsBetter {
		return 100 * ratio(p-t, p)
	}
	return 100 * ratio(t-p, p)
}

// layerMetric is one per-layer metric. A metric of a layer the workload
// does not call reads 0; README.md lists the workload each one is for.
type layerMetric struct {
	name  string
	unit  string
	value func(in layerInputs) float64
}

const (
	nsPerUs = 1e3
	nsPerMs = 1e6
)

var layerMetrics = []layerMetric{
	// core: whole Owner/Consumer operations.
	{"core.publish_p50_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("core.publish")) }},
	{"core.grant_p50_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("core.grant")) }},
	{"core.policy_update_p50_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("core.policy_update")) }},
	{"core.monitor_p50_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("core.monitor")) }},
	{"core.use_p50_us", "us", func(in layerInputs) float64 { return us(in.p50("core.use")) }},
	{"core.catalog_p50_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("core.catalog")) }},
	{"core.index_p50_us", "us", func(in layerInputs) float64 { return us(in.p50("core.index")) }},
	{"core.access_p99_ms", "ms", func(in layerInputs) float64 { return ms(in.p99("core.access")) }},
	{"core.fetch_p99_ms", "ms", func(in layerInputs) float64 { return ms(in.p99("core.fetch")) }},
	{"core.catalog_p99_ms", "ms", func(in layerInputs) float64 { return ms(in.p99("core.catalog")) }},
	{"core.submit_batch_p99_ms", "ms", func(in layerInputs) float64 { return ms(in.p99("core.submit_batch")) }},
	{"core.policy_propagation_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("core.policy_propagation")) }},

	// The public steps inside Access and the browse re-fetch.
	{"oracle.pull_out_query_us", "us", func(in layerInputs) float64 { return us(in.p50("oracle.pull_out_query")) }},
	{"market.pay_fee_us", "us", func(in layerInputs) float64 { return us(in.p50("market.pay_fee")) }},
	{"solid.get_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("solid.get")) }},
	{"tee.store_us", "us", func(in layerInputs) float64 { return us(in.p50("tee.store")) }},
	{"distexchange.confirm_retrieval_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("distexchange.confirm_retrieval")) }},

	// podmanager: Monitor and ModifyPolicy step by step.
	{"podmanager.start_monitoring_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("podmanager.start_monitoring")) }},
	{"podmanager.round_wait_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("podmanager.round_wait")) }},
	{"podmanager.collect_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("podmanager.collect")) }},
	{"podmanager.modify_policy_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("podmanager.modify_policy")) }},

	// chain, timed from outside: SubmitBatch step by step.
	{"chain.admit_batch_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("chain.admit_batch")) }},
	{"chain.seal_next_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("chain.seal_next")) }},
	{"chain.follower_apply_ms", "ms", func(in layerInputs) float64 { return ms(in.p50("chain.follower_apply")) }},

	// chain, from validator 0's own counters.
	{"chain.verify_us_tx", "us", func(in layerInputs) float64 {
		return ratio(in.sumDelta("chain_verify_latency_ns"), in.sumDelta("chain_block_txs")) / nsPerUs
	}},
	{"chain.seal_p50_ms", "ms", func(in layerInputs) float64 { return in.histP50("chain_seal_duration_ns") / nsPerMs }},
	{"chain.fold_p50_us", "us", func(in layerInputs) float64 { return in.histP50("chain_state_fold_ns") / nsPerUs }},
	{"chain.txs_per_block", "count", func(in layerInputs) float64 {
		return ratio(in.sumDelta("chain_block_txs"), in.delta("chain_block_txs"))
	}},
	{"chain.receipt_wait_p50_us", "us", func(in layerInputs) float64 { return in.histP50("chain_receipt_wait_ns") / nsPerUs }},
	{"chain.blocks_per_op", "count", func(in layerInputs) float64 {
		return ratio(in.delta("chain_blocks_committed_total"), in.ops)
	}},

	// store: validator 0's WAL.
	{"store.wal_append_p50_us", "us", func(in layerInputs) float64 { return in.histP50("store_wal_append_ns") / nsPerUs }},
	{"store.fsyncs_per_block", "count", func(in layerInputs) float64 {
		return ratio(in.delta("store_wal_fsync_total"), in.delta("chain_blocks_committed_total"))
	}},
	{"store.wal_bytes_per_tx", "B", func(in layerInputs) float64 {
		return ratio(in.delta("store_wal_appended_bytes_total"), in.sumDelta("chain_block_txs"))
	}},

	// solid: the pod host, server side.
	{"solid.request_p50_us", "us", func(in layerInputs) float64 {
		return in.histP50(in.busiest("solid_request_latency_ns")) / nsPerUs
	}},
	{"solid.auth_cache_hit_ratio", "ratio", func(in layerInputs) float64 {
		hits := in.delta("solid_auth_cache_total,outcome=hit")
		return ratio(hits, hits+in.delta("solid_auth_cache_total,outcome=miss"))
	}},
	{"solid.auth_cache_lookups", "count", func(in layerInputs) float64 {
		return in.delta("solid_auth_cache_total,outcome=hit") + in.delta("solid_auth_cache_total,outcome=miss")
	}},

	// Tracing overhead: how much worse the traced run's end-to-end
	// metrics are than the plain run's.
	{"trace.goodput_overhead_pct", "%", func(in layerInputs) float64 { return in.overhead("goodput_ops_s", true) }},
	{"trace.latency_overhead_pct", "%", func(in layerInputs) float64 { return in.overhead("latency_p50_ms", false) }},
	{"trace.cpu_overhead_pct", "%", func(in layerInputs) float64 { return in.overhead("cpu_us_op", false) }},
	{"trace.alloc_overhead_pct", "%", func(in layerInputs) float64 { return in.overhead("alloc_kb_op", false) }},
}

func perLayer(rec *recorder, before, after snapshot, plain, traced map[string]metric) map[string]metric {
	in := layerInputs{
		durs:   map[string][]time.Duration{},
		before: before,
		after:  after,
		ops:    float64(rec.completed()),
		plain:  plain,
		traced: traced,
	}
	// Successful operations and observed delays come from the recorder;
	// the steps inside operations come from their spans.
	for name, ds := range rec.durs {
		in.durs[name] = ds
	}
	for name, ds := range rec.tr.durations() {
		if _, ok := in.durs[name]; !ok {
			in.durs[name] = ds
		}
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{Value: m.value(in), Unit: m.unit}
	}
	return out
}
