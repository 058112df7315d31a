package main

// metricDef is one row of the benchmark's metric schema. BENCHMARK.json at
// the repository root repeats these rows for the driver; quick_test.go
// holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median a change may lose
}

// endToEnd are the numbers a user of provd sees. Every one is measured on
// every workload, on the op the workload's clients wait for:
//
//	workload   ops_per_s counts        latency_* times
//	ingest     acknowledged runs       PutRunLog, closed loop
//	lineage    lineage/dependents/expand over HTTP, closed loop (both)
//	analytics  PQL queries over HTTP, closed loop (both)
//	mixed      the readers' closure ops  the fixed-rate publisher's PutRunLog, from its due time
//
// On mixed the two sides split this way because each side has one free
// variable: the readers are a closed loop, so their latency is their
// throughput; the publisher's rate is fixed by its schedule, so its health
// is its latency.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_user_byte", "B/B", "lower", 0.03},
	{"heap_bytes_per_entity", "B", "lower", 0.25},
}

// perLayer are the traced run's numbers, layer = package name. A metric of
// a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"api.client_overhead_us_p50", "us", "lower", 0},
	{"collab.handler_self_us_p50", "us", "lower", 0},
	{"collab.response_bytes_per_op", "B", "lower", 0},
	{"collab.requests_total", "count", "higher", 0},
	{"collab.errors_total", "count", "lower", 0},
	{"standing.put_self_us_p50", "us", "lower", 0},
	{"standing.deltas_per_run", "count", "lower", 0},
	{"standing.patch_busy_s", "s", "lower", 0},
	{"standing.dropped_total", "count", "lower", 0},
	{"closurecache.closure_hit_ratio", "ratio", "higher", 0},
	{"closurecache.closure_self_us_p50", "us", "lower", 0},
	{"closurecache.put_self_us_p50", "us", "lower", 0},
	{"closurecache.patched_per_run", "count", "lower", 0},
	{"closurecache.evictions_total", "count", "lower", 0},
	{"closurecache.batched_total", "count", "higher", 0},
	{"closurecache.patch_busy_s", "s", "lower", 0},
	{"shardedstore.closure_us_p50", "us", "lower", 0},
	{"shardedstore.closure_us_p99", "us", "lower", 0},
	{"shardedstore.put_us_p50", "us", "lower", 0},
	{"shardedstore.rounds_per_closure", "count", "lower", 0},
	{"shardedstore.crossings_per_closure", "count", "lower", 0},
	{"shardedstore.scatter_shards_mean", "count", "lower", 0},
	{"shardedstore.reopen_s", "s", "lower", 0},
	{"store.reopen_s", "s", "lower", 0},
	{"store.ingest_us_p50", "us", "lower", 0},
	{"store.ingest_us_p99", "us", "lower", 0},
	{"store.closure_us_p50", "us", "lower", 0},
	{"store.expand_us_p50", "us", "lower", 0},
	{"store.runlog_load_us_p50", "us", "lower", 0},
	{"store.checkpoints_total", "count", "higher", 0},
	{"store.checkpoint_bytes", "B", "lower", 0},
	{"store.log_bytes_per_user_byte", "B/B", "lower", 0},
	{"wal.fsyncs_per_run", "count", "lower", 0},
	{"wal.batch_records_mean", "count", "higher", 0},
	{"wal.commit_us_p50", "us", "lower", 0},
	{"wal.commit_us_p99", "us", "lower", 0},
	{"wal.bytes_per_run", "B", "lower", 0},
	{"scan.logs_ms", "ms", "lower", 0},
	{"scan.logs_us_per_run", "us", "lower", 0},
	{"scan.shards_parallel", "count", "higher", 0},
	{"pql.parse_us_p50", "us", "lower", 0},
	{"pql.exec_ms_p50", "ms", "lower", 0},
	{"pql.alloc_bytes_per_query", "B", "lower", 0},
	{"pql.rows_examined_per_row_returned", "ratio", "lower", 0},
	{"relalg.operator_rows_per_query", "count", "lower", 0},
	{"replica.lag_bytes_p50", "B", "lower", 0},
	{"replica.lag_bytes_max", "B", "lower", 0},
	{"replica.catchup_s", "s", "lower", 0},
	{"replica.apply_us_p50", "us", "lower", 0},
	{"replica.shipped_bytes_per_run", "B", "lower", 0},
	{"replica.stream_requests_per_s", "1/s", "lower", 0},
	{"replica.retries_total", "count", "lower", 0},
	{"process.allocs_per_op", "count", "lower", 0},
	{"process.alloc_bytes_per_op", "B", "lower", 0},
	{"process.gc_pause_ms_total", "ms", "lower", 0},
	{"process.cpu_s_per_kop", "s", "lower", 0},
	{"process.rss_peak_mb", "MB", "lower", 0},
	{"loadgen.clients", "count", "higher", 0},
	{"loadgen.ops_per_s", "1/s", "higher", 0},
	{"loadgen.latency_p99_ms", "ms", "lower", 0},
	{"loadgen.read_p50_ms", "ms", "lower", 0},
	{"loadgen.late_ms_p99", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"trace.spans_total", "count", "higher", 0},
	{"trace.unattributed_share_ingest", "ratio", "lower", 0},
	{"trace.unattributed_share_closure", "ratio", "lower", 0},
	{"trace.unattributed_share_expand", "ratio", "lower", 0},
	{"trace.unattributed_share_query", "ratio", "lower", 0},
}

// runSeconds is the length of the timed phase the driver asks for, and the
// one the bounds were fixed at.
const runSeconds = 25

// benchmarkJSON is BENCHMARK.json: what the driver runs, on which
// workloads, and which metrics it holds a later change to.
func benchmarkJSON() any {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []named
	for _, w := range workloads {
		if !w.ungated {
			ws = append(ws, named{w.name, w.why})
		}
	}
	var ls []layer
	for _, d := range perLayer {
		ls = append(ls, layer{d.Name, d.Unit, d.Better})
	}
	return struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench/provload"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  ws, EndToEnd: endToEnd, PerLayer: ls,
	}
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects a run's values against one schema: setting a name the
// schema lacks panics (a bug), and finish fills the names never set with 0.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: map[string]metric{}}
}

func (s *metricSet) set(name string, v float64, samples int) {
	for _, d := range s.defs {
		if d.Name == name {
			s.m[name] = metric{Value: v, Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("provload: metric " + name + " is not in the schema")
}

func (s *metricSet) finish() map[string]metric {
	for _, d := range s.defs {
		if _, ok := s.m[d.Name]; !ok {
			s.m[d.Name] = metric{Unit: d.Unit}
		}
	}
	return s.m
}
