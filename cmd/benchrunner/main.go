// Command benchrunner regenerates the full experiment suite (E1-E17 in
// DESIGN.md) and prints the result tables. Every run is deterministic under
// its seed; pass -seed to replicate with different randomness.
//
//	benchrunner                                  # full suite
//	benchrunner -quick                           # reduced sweep for a fast look
//	benchrunner -run E3,E6                       # selected experiments
//	benchrunner -json BENCH_2026-10-15.json      # the committed reference
//
// The -json document carries, per experiment, the headline metrics plus one
// record per harness run with throughput, abort rate, and commit-latency
// percentiles (p50/p90/p99) — the structured counterpart of the printed
// tables, suitable for CI artifact upload and regression diffing. Everything
// in it but the date and E13's wall-clock throughputs and their ratio runs
// in virtual time: the repository commits the full sweep of its tree as
// BENCH_<date>.json, and a refactor proves itself by regenerating it
// unchanged (`make bench-identical A=BENCH_<date>.json B=<new>`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// benchDoc is the -json output: run metadata, the per-experiment headline
// metrics, and one RunSummary per harness run.
type benchDoc struct {
	Date       string                        `json:"date"`
	Quick      bool                          `json:"quick"`
	Seed       int64                         `json:"seed"`
	Metrics    map[string]map[string]float64 `json:"metrics"`
	Runs       []experiments.RunSummary      `json:"runs"`
	Violations []string                      `json:"violations,omitempty"`
}

// replicationStudy reports headline metrics as mean±stddev across seeds —
// the variance check for the single-seed tables.
func replicationStudy(seeds int, quick bool) error {
	count := 400
	if quick {
		count = 100
	}
	tbl := harness.NewTable(fmt.Sprintf("Seed replication study (%d seeds, mixed workload, 5 sites)", seeds),
		"protocol", "msgs/commit", "abort rate", "mean latency (µs)", "throughput/s")
	protos := append(append([]string(nil), harness.Protocols...), harness.ProtoQuorum)
	for _, proto := range protos {
		ecfg := core.Config{}
		if proto == harness.ProtoCausal {
			ecfg.CausalHeartbeat = 25 * time.Millisecond
		}
		rep, err := harness.Replicate(harness.Options{
			Protocol: proto,
			Seed:     1,
			Engine:   ecfg,
			Workload: workload.Spec{
				Sites: 5, Count: count, Window: 15 * time.Second,
				Keys: 64, HotKeys: 8, HotProb: 0.3,
				ReadOnlyFraction: 0.25, ReadsPerTxn: 2, WritesPerTxn: 2, Seed: 1,
			},
		}, seeds)
		if err != nil {
			return err
		}
		tbl.Add(proto, rep.MsgsPerCommit.String(), rep.AbortRate.String(),
			rep.MeanLatencyMicro.String(), rep.Throughput.String())
	}
	fmt.Println(tbl)
	return nil
}

func run() error {
	quick := flag.Bool("quick", false, "reduced sweeps")
	seed := flag.Int64("seed", 0, "seed offset for replication runs")
	sel := flag.String("run", "", "comma-separated experiment ids (default all), e.g. E1,E3")
	jsonOut := flag.String("json", "", "also write all metrics as JSON to this file (- for stdout)")
	seeds := flag.Int("seeds", 0, "run a seed-replication study (N seeds per protocol) instead of the experiment suite")
	flag.Parse()

	if *seeds > 0 {
		return replicationStudy(*seeds, *quick)
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	wanted := map[string]bool{}
	for _, id := range strings.Split(*sel, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			wanted[id] = true
		}
	}

	all := map[string]func(experiments.Config) (*experiments.Report, error){
		"E1":  experiments.E1Messages,
		"E2":  experiments.E2CommitLatency,
		"E3":  experiments.E3AbortContention,
		"E4":  experiments.E4ThroughputSites,
		"E5":  experiments.E5WriteMix,
		"E6":  experiments.E6CausalHeartbeat,
		"E7":  experiments.E7Availability,
		"E8":  experiments.E8Ablation,
		"E9":  experiments.E9Batching,
		"E10": experiments.E10Quorum,
		"E11": experiments.E11SlowSite,
		"E12": experiments.E12SnapshotReads,
		"E13": experiments.E13GroupCommit,
		"E14": experiments.E14OrdererBatching,
		"E15": experiments.E15CheckpointRecovery,
		"E16": experiments.E16PartialReplication,
		"E17": experiments.E17ChaosFailover,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17"}

	violations := 0
	doc := benchDoc{
		Date:    time.Now().UTC().Format("2006-01-02"),
		Quick:   *quick,
		Seed:    *seed,
		Metrics: make(map[string]map[string]float64),
	}
	for _, id := range order {
		if len(wanted) > 0 && !wanted[id] {
			continue
		}
		rep, err := all[id](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Printf("\n######## %s ########\n", rep.ID)
		for _, t := range rep.Tables {
			fmt.Println(t)
		}
		for _, v := range rep.Violations {
			violations++
			fmt.Printf("!! EXPECTATION VIOLATED: %s\n", v)
		}
		doc.Metrics[rep.ID] = rep.Metrics
		doc.Runs = append(doc.Runs, rep.Runs...)
		doc.Violations = append(doc.Violations, rep.Violations...)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d expectation(s) violated", violations)
	}
	fmt.Println("all expectations hold")
	return nil
}
