// Command bench is the repository's wall-clock benchmark: it boots a live
// replicadb-equivalent cluster in this process over loopback TCP, drives it
// with seeded transactions through the engines' client API, and prints
// every end-to-end and per-layer metric named in BENCHMARK.json, checking
// the cluster's outputs on the way. See README.md beside this file.
//
//	go run ./bench -seed 1                      # every workload, untraced then traced
//	go run ./bench -workload reliable-mem -trace 0
//	go run ./bench -repeat 2                    # two sets back to back, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// metricDef declares one metric of BENCHMARK.json. bound is the share by
// which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p90_ms", "ms", "lower", 0.25},
	{"ro_p90_ms", "ms", "lower", 0.25},
	{"allocs_per_commit", "count", "lower", 0.05},
	{"wire_bytes_per_commit", "B", "lower", 0.05},
	{"first_try_frac", "frac", "higher", 0.02},
	{"rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{"message.wire_bytes_per_msg", "B", "lower", 0},
	{"message.encode_ns_per_msg", "ns", "lower", 0},
	{"message.decode_ns_per_msg", "ns", "lower", 0},
	{"message.codec_allocs_per_msg", "count", "lower", 0},
	{"livenet.msgs_per_commit", "count", "lower", 0},
	{"livenet.dropped_msgs", "count", "lower", 0},
	{"livenet.flush_batch_mean", "count", "higher", 0},
	{"livenet.send_ns", "ns", "lower", 0},
	{"livenet.loop_wait_us_p50", "us", "lower", 0},
	{"livenet.loop_wait_us_p99", "us", "lower", 0},
	{"livenet.loop_busy_frac", "frac", "lower", 0},
	{"livenet.pipe_msgs_per_s", "1/s", "higher", 0},
	{"broadcast.order_wait_us_p50", "us", "lower", 0},
	{"broadcast.reliable_deliver_ns", "ns", "lower", 0},
	{"broadcast.causal_deliver_ns", "ns", "lower", 0},
	{"broadcast.atomic_deliver_ns", "ns", "lower", 0},
	{"broadcast.isis_deliver_ns", "ns", "lower", 0},
	{"broadcast.batch_deliver_ns", "ns", "lower", 0},
	{"broadcast.reliable_deliver_allocs", "count", "lower", 0},
	{"broadcast.causal_deliver_allocs", "count", "lower", 0},
	{"broadcast.atomic_deliver_allocs", "count", "lower", 0},
	{"broadcast.isis_deliver_allocs", "count", "lower", 0},
	{"broadcast.batch_deliver_allocs", "count", "lower", 0},
	{"core.receive_us_per_commit", "us", "lower", 0},
	{"core.engine_commit_p50_ms", "ms", "lower", 0},
	{"core.cert_wait_us_p50", "us", "lower", 0},
	{"core.ack_wait_us_p50", "us", "lower", 0},
	{"core.aborts_certification_frac", "frac", "lower", 0},
	{"core.aborts_write_conflict_frac", "frac", "lower", 0},
	{"core.aborts_other_frac", "frac", "lower", 0},
	{"core.sat_cps", "1/s", "higher", 0},
	{"core.sat_cpu_us_per_commit", "us", "lower", 0},
	{"core.solo_sat_cps", "1/s", "higher", 0},
	{"lockmgr.lock_wait_us_p50", "us", "lower", 0},
	{"lockmgr.lock_wait_us_p99", "us", "lower", 0},
	{"lockmgr.lock_waits_per_commit", "count", "lower", 0},
	{"lockmgr.acquire_release_ns", "ns", "lower", 0},
	{"lockmgr.acquire_release_allocs", "count", "lower", 0},
	{"lockmgr.contended_ns", "ns", "lower", 0},
	{"commitpipe.records_per_fsync_mean", "count", "higher", 0},
	{"commitpipe.fsyncs_per_commit", "count", "lower", 0},
	{"commitpipe.ack_wait_us_p50", "us", "lower", 0},
	{"commitpipe.submit_ns", "ns", "lower", 0},
	{"commitpipe.submit_allocs", "count", "lower", 0},
	{"storage.fsync_us_p50", "us", "lower", 0},
	{"storage.fsync_us_p99", "us", "lower", 0},
	{"storage.wal_bytes_per_commit", "B", "lower", 0},
	{"storage.wal_append_ns", "ns", "lower", 0},
	{"storage.wal_append_allocs", "count", "lower", 0},
	{"storage.apply_batch_ns_per_write", "ns", "lower", 0},
	{"storage.get_ns", "ns", "lower", 0},
	{"storage.replay_records_per_s", "1/s", "higher", 0},
	{"checkpoint.count", "count", "lower", 0},
	{"checkpoint.write_ms_p50", "ms", "lower", 0},
	{"checkpoint.bytes_last", "B", "lower", 0},
	{"checkpoint.segments_truncated", "count", "higher", 0},
	{"checkpoint.recover_ms", "ms", "lower", 0},
	{"shard.cross_frac", "frac", "lower", 0},
	{"shard.single_commit_p50_ms", "ms", "lower", 0},
	{"shard.cross_commit_p50_ms", "ms", "lower", 0},
	{"shard.pending_coord_max", "count", "lower", 0},
	{"shard.orphaned_prepares_end", "count", "lower", 0},
	{"shard.group_of_ns", "ns", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.spans_dropped", "count", "lower", 0},
	{"workload.gen_lag_p99_ms", "ms", "lower", 0},
	{"workload.generate_ns_per_txn", "ns", "lower", 0},
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed of workload.Generate; the only thing it feeds")
	seconds := flag.Int("seconds", defaultSeconds, "seconds one run measures")
	traceMode := flag.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	repeat := flag.Int("repeat", 1, "sets to run back to back; with 2 or more the sets are compared per workload and metric")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for trace files and the clusters' scratch data")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceMode, *repeat, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traceMode string, repeat int, out string) error {
	defs := workloads
	if workload != "" {
		def := findWorkload(workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		defs = []*workloadDef{def}
	}
	var modes []bool
	switch traceMode {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, got %q", traceMode)
	}
	if seconds < 1 || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	// Scratch data lives under out, inside the checkout, and is removed
	// when the command ends; the trace files stay.
	dataRoot := filepath.Join(out, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)

	correct := true
	sets := make([]map[string]*runResult, repeat)
	for set := range sets {
		sets[set] = make(map[string]*runResult)
		for _, def := range defs {
			for _, traced := range modes {
				var res *runResult
				var err error
				if traced {
					res, err = runTraced(def, seed, planFor(seconds), dataRoot, out)
				} else {
					res, err = runUntraced(def, seed, planFor(seconds), dataRoot)
				}
				if err != nil {
					return fmt.Errorf("%s: %w", def.name, err)
				}
				if err := checkComplete(res); err != nil {
					return err
				}
				correct = correct && len(res.violations) == 0
				sets[set][key(def.name, traced)] = res
				if err := report(res, seed, seconds, set, repeat); err != nil {
					return err
				}
			}
		}
	}
	if repeat > 1 {
		correct = compare(sets, defs, modes) && correct
	}
	if !correct {
		return fmt.Errorf("a correctness check failed or two sets disagreed; see above")
	}
	return nil
}

func key(workload string, traced bool) string { return fmt.Sprintf("%s/%v", workload, traced) }

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// checkComplete makes a run that lost a metric fail loudly instead of
// printing a shorter table.
func checkComplete(res *runResult) error {
	defs := defsFor(res.traced)
	for _, d := range defs {
		m, ok := res.get(d.name)
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.workload, d.name)
		}
		if m.unit != d.unit {
			return fmt.Errorf("%s: metric %s has unit %s, declared %s", res.workload, d.name, m.unit, d.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is %v", res.workload, d.name, m.value)
		}
	}
	if len(res.metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics measured, %d declared", res.workload, len(res.metrics), len(defs))
	}
	return nil
}

// report prints one run: a table for people, then the run's result as one
// JSON object on the last line.
func report(res *runResult, seed int64, seconds, set, sets int) error {
	mode := "untraced run: end-to-end metrics"
	if res.traced {
		mode = "traced run: per-layer metrics"
	}
	fmt.Printf("\n== %s, %s (seed %d, %d s", res.workload, mode, seed, seconds)
	if sets > 1 {
		fmt.Printf(", set %d of %d", set+1, sets)
	}
	fmt.Println(") ==")
	for _, d := range defsFor(res.traced) {
		m, _ := res.get(d.name)
		fmt.Printf("  %-36s %16.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	for _, v := range res.violations {
		fmt.Println("  VIOLATION: " + v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.violations) == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// compare prints, per workload and metric, the first and last set's values
// and their ratio, and for end-to-end metrics whether the two agree within
// the metric's bound. It reports whether every bounded metric did.
func compare(sets []map[string]*runResult, defs []*workloadDef, modes []bool) bool {
	first, last := sets[0], sets[len(sets)-1]
	agree := true
	fmt.Printf("\n== set 1 against set %d ==\n", len(sets))
	for _, def := range defs {
		for _, traced := range modes {
			a, b := first[key(def.name, traced)], last[key(def.name, traced)]
			for _, d := range defsFor(traced) {
				ma, _ := a.get(d.name)
				mb, _ := b.get(d.name)
				ratio := math.NaN()
				if ma.value != 0 {
					ratio = mb.value / ma.value
				}
				verdict := ""
				if d.bound > 0 {
					verdict = fmt.Sprintf("within %.3f", d.bound)
					if spread := math.Max(ratio, 1/ratio) - 1; !(spread <= d.bound) {
						verdict = fmt.Sprintf("OUTSIDE %.3f", d.bound)
						agree = false
					}
				}
				fmt.Printf("  %-18s %-36s %14.4f %14.4f %-6s x%.3f %s\n", def.name, d.name, ma.value, mb.value, d.unit, ratio, verdict)
			}
		}
	}
	return agree
}
