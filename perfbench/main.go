// Command perfbench is the repository benchmark. It drives one named
// workload against the real query service (loopback HTTP) and the
// public stark DSL, checks every answer against its own oracle, and
// prints the metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload query-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end figures of the timed
// run. With --trace 1 the same run is followed by a traced in-process
// replay, and the metrics are the per-layer figures; the replay's span
// table, tracing overhead and unaccounted share are printed above the
// JSON line. The exit code is non-zero when any operation failed or
// any answer disagreed with the oracle. See SPEC.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sizes    sizes
}

type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the service sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_qps", "req/s"},
	{"ingest_rows_per_s", "rows/s"},
	{"recover_s", "s"},
	{"disk_bytes_per_user_byte", "ratio"},
	{"job_s", "s"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the figures of single layers, from the traced replay
// and from counters read around the timed run, plus run-level figures
// that cannot carry a bound: failed_ops_ratio (0 on every correct run)
// and the per-batch ingest latencies (fsync-bound; their spread over
// seeds on a shared 2-CPU machine exceeds the largest bound allowed).
var perLayer = []metricDef{
	{"server.http_us", "us"},
	{"server.hit_http_us", "us"},
	{"server.self_us", "us"},
	{"server.encode_ns_per_row", "ns/row"},
	{"server.transport_us", "us"},
	{"server.observed_p50_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_bytes", "bytes"},
	{"server.rejected", "count"},
	{"server.counter_drift", "count"},
	{"server.ingest_us", "us"},
	{"server.checkpoint_ms", "ms"},
	{"wal.replayed_batches", "count"},
	{"stark.fingerprint_us", "us"},
	{"stark.snapshot_us", "us"},
	{"plan.compile_us", "us"},
	{"partition.build_ms", "ms"},
	{"stats.build_ms", "ms"},
	{"colstore.build_ms", "ms"},
	{"colstore.rebuild_ms", "ms"},
	{"attr.build_ms", "ms"},
	{"core.execute_us", "us"},
	{"engine.scanned_per_row", "ratio"},
	{"engine.tasks_skipped_ratio", "ratio"},
	{"colstore.survivor_ratio", "ratio"},
	{"core.refined_per_row", "ratio"},
	{"engine.index_probes_per_query", "count"},
	{"live.apply_us", "us"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.fsyncs_per_batch", "ratio"},
	{"core.join_us", "us"},
	{"index.build_ms", "ms"},
	{"core.join_refined_per_pair", "ratio"},
	{"core.join_shuffled", "count"},
	{"core.join_trees_built", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_pause_ms", "ms"},
	{"failed_ops_ratio", "ratio"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"trace.overhead_us", "us"},
	{"trace.unaccounted_ratio", "ratio"},
}

var workloads = []string{"query-cold", "ingest-live"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := config{sizes: defaultSizes()}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: query-cold or ingest-live")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = follow the run with the traced replay and report per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for data dirs and trace files")
	flag.Parse()
	cfg.trace = trace == 1
	os.Exit(report(cfg, false))
}

// report runs the invocation, prints the result line and returns the
// exit code: 0 when every operation succeeded, 1 when any failed, 2
// when the run could not produce a result. plant makes the response
// checker expect one row too many once, for the benchmark's own tests.
func report(cfg config, plant bool) int {
	res, err := run(cfg, plant)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one invocation and assembles its result.
func run(cfg config, plant bool) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg}
	r.chk.plant.Store(plant)
	var o *outcome
	var err error
	switch cfg.workload {
	case "query-cold":
		o, err = r.queryWorkload()
	case "ingest-live":
		o, err = r.ingestWorkload()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	defs, values := endToEnd, o.e2e
	if cfg.trace {
		layer, err := r.traced(o)
		if err != nil {
			return nil, err
		}
		for k, v := range o.layer {
			layer[k] = v
		}
		layer["server.rejected"] = float64(r.rejected.Load())
		layer["failed_ops_ratio"] = float64(r.failed.Load()) / float64(max(r.attempted.Load(), 1))
		defs, values = perLayer, layer
		fmt.Println("note: the /metrics latency histogram's lowest bucket is 100 us, so server.observed_p50_ms cannot resolve sub-100 us cache hits")
	}
	res := &result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s: metrics not measured: %v", cfg.workload, missing)
	}
	for _, d := range defs {
		fmt.Printf("%-30s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	return res, nil
}
