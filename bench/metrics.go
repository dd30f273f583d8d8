package main

// The metric names and units the benchmark emits. BENCHMARK.json names the
// same set (with the bound and direction of each end-to-end metric); the
// drift test holds the two together.

type metricDef struct{ name, unit string }

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"search_p95_ms", "ms"},
	{"searches_per_s", "1/s"},
	{"replace_p50_ms", "ms"},
	{"alloc_kb_per_search", "KiB"},
	{"heap_live_mb", "MiB"},
	{"disk_bytes_per_input_byte", "ratio"},
}

// perLayer comes from the traced run. Layer = module name. A metric of a
// layer a workload does not use reads 0 there.
var perLayer = []metricDef{
	{"xmltree.parse_us_per_kb", "us/KiB"},
	{"xmltree.serialize_us", "us"},
	{"pathindex.build_us_per_kb", "us/KiB"},
	{"invindex.build_us_per_kb", "us/KiB"},
	{"pathindex.probes_per_search", "count"},
	{"invindex.lookups_per_search", "count"},
	{"xq.parse_us", "us"},
	{"qpt.generate_us", "us"},
	{"pdt.prepare_lists_us", "us"},
	{"pdt.generate_us", "us"},
	{"pdt.candidates_per_search", "count"},
	{"pdt.nodes_per_search", "count"},
	{"pdt.bytes_per_search", "B"},
	{"xqeval.eval_us", "us"},
	{"xqeval.view_results_per_search", "count"},
	{"scoring.rank_us", "us"},
	{"scoring.materialize_us", "us"},
	{"scoring.snippet_us", "us"},
	{"scoring.matched_frac", "ratio"},
	{"store.subtree_fetches_per_search", "count"},
	{"store.bytes_fetched_per_search", "B"},
	{"store.subtree_us", "us"},
	{"diskstore.block_hit_frac", "ratio"},
	{"diskstore.block_misses_per_search", "count"},
	{"diskstore.doc_hit_frac", "ratio"},
	{"diskstore.index_hit_frac", "ratio"},
	{"diskstore.stored_indices_us", "us"},
	{"diskstore.open_ms", "ms"},
	{"diskstore.save_ms", "ms"},
	{"diskstore.bytes_per_input_byte", "ratio"},
	{"diskstore.append_bytes_per_replaced_byte", "ratio"},
	{"catalog.cache_hit_frac", "ratio"},
	{"catalog.rewritten_frac", "ratio"},
	{"catalog.materialized_frac", "ratio"},
	{"catalog.direct_frac", "ratio"},
	{"catalog.cache_hit_us", "us"},
	{"catalog.rewritten_us", "us"},
	{"catalog.materialized_us", "us"},
	{"catalog.direct_us", "us"},
	{"catalog.evictions", "count"},
	{"catalog.invalidations", "count"},
	{"catalog.promotions", "count"},
	{"catalog.demotions", "count"},
	{"catalog.artifact_mb", "MiB"},
	{"core.search_us", "us"},
	{"core.other_us", "us"},
	{"core.parallel_speedup", "ratio"},
	{"core.replace_us", "us"},
	{"vxml.search_us", "us"},
	{"vxml.overhead_us", "us"},
	{"server.request_us", "us"},
	{"server.handler_us", "us"},
	{"server.transport_us", "us"},
	{"server.overhead_us", "us"},
	{"server.response_kb", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.ops", "count"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a registry, so a run can neither emit
// a name the registry lacks nor leave one out.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the registry")
}

// values returns every registered metric; one never set reads 0.
func (m *metricSet) values() map[string]value {
	out := make(map[string]value, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = value{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}
