// Package experiments defines the reproduction's evaluation suite — the
// measured counterparts of the paper's analytical comparison plus the
// sensitivity and availability studies it discusses qualitatively. Each
// experiment builds harness runs, renders a table, and exposes headline
// metrics; cmd/benchrunner prints the tables and bench_test.go reports the
// metrics as testing.B results. EXPERIMENTS.md records expectation vs.
// measurement for each.
package experiments

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/broadcast"
	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Report is one experiment's output.
type Report struct {
	ID     string
	Title  string
	Tables []*harness.Table
	// Metrics are headline numbers ("reliable/n=5/msgs_per_commit" style
	// keys) for benchmark reporting.
	Metrics map[string]float64
	// Runs records every harness run's full measurement block, for
	// structured (JSON) export alongside the rendered tables.
	Runs []RunSummary
	// Violations lists any failed expectations (empty = reproduction holds).
	Violations []string
}

// RunSummary is the machine-readable record of one harness run inside an
// experiment — the per-run counterpart of the printed table rows, with the
// latency percentiles the tables round away.
type RunSummary struct {
	Experiment string  `json:"experiment"`
	Label      string  `json:"label"`
	Protocol   string  `json:"protocol"`
	Sites      int     `json:"sites"`
	Submitted  int     `json:"submitted"`
	Committed  int     `json:"committed"`
	ReadOnly   int     `json:"readonly_committed"`
	Aborted    int     `json:"aborted"`
	Unfinished int     `json:"unfinished"`
	AbortRate  float64 `json:"abort_rate"`

	ThroughputPerSec float64 `json:"throughput_per_sec"`
	MsgsPerCommit    float64 `json:"msgs_per_commit"`
	BytesPerCommit   float64 `json:"bytes_per_commit"`

	LatencyMeanMicros float64 `json:"latency_mean_us"`
	LatencyP50Micros  float64 `json:"latency_p50_us"`
	LatencyP90Micros  float64 `json:"latency_p90_us"`
	LatencyP99Micros  float64 `json:"latency_p99_us"`
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: make(map[string]float64)}
}

// record captures one harness run for the structured export and returns the
// result unchanged so it can wrap call sites.
func (r *Report) record(label string, res harness.Result) harness.Result {
	snap := res.UpdateLatency.Snapshot()
	r.Runs = append(r.Runs, RunSummary{
		Experiment:        r.ID,
		Label:             label,
		Protocol:          res.Protocol,
		Sites:             res.Sites,
		Submitted:         res.Submitted,
		Committed:         res.Committed,
		ReadOnly:          res.ReadOnlyCommitted,
		Aborted:           res.Aborted,
		Unfinished:        res.Unfinished,
		AbortRate:         res.AbortRate(),
		ThroughputPerSec:  res.ThroughputPerSec,
		MsgsPerCommit:     res.ProtocolMsgsPerCommit,
		BytesPerCommit:    res.BytesPerCommit,
		LatencyMeanMicros: float64(snap.Mean.Microseconds()),
		LatencyP50Micros:  float64(snap.P50.Microseconds()),
		LatencyP90Micros:  float64(snap.P90.Microseconds()),
		LatencyP99Micros:  float64(snap.P99.Microseconds()),
	})
	return res
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Config scales the suite.
type Config struct {
	// Quick shrinks transaction counts and sweep points for CI-speed runs.
	Quick bool
	// Seed offsets all runs for replication studies.
	Seed int64
}

func (c Config) txns(full int) int {
	if c.Quick {
		return full / 4
	}
	return full
}

func (c Config) seed(base int64) int64 { return base + c.Seed }

// All runs every experiment.
func All(cfg Config) ([]*Report, error) {
	runs := []func(Config) (*Report, error){
		E1Messages, E2CommitLatency, E3AbortContention, E4ThroughputSites,
		E5WriteMix, E6CausalHeartbeat, E7Availability, E8Ablation, E9Batching,
		E10Quorum, E11SlowSite, E12SnapshotReads, E14OrdererBatching,
		E15CheckpointRecovery, E16PartialReplication, E17ChaosFailover,
	}
	out := make([]*Report, 0, len(runs))
	for _, f := range runs {
		r, err := f(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// E1Messages measures per-commit message and broadcast-operation counts
// against the analytical model, across cluster sizes. Paper claim: protocol
// C needs no positive acknowledgements, protocol A no acknowledgements at
// all, while protocol R's decentralized vote round costs n(n-1) unicasts.
func E1Messages(cfg Config) (*Report, error) {
	rep := newReport("E1", "Messages per committed update transaction (w=2 writes, no contention)")
	tbl := harness.NewTable(rep.Title,
		"sites", "protocol", "unicasts/commit", "analytic", "broadcast ops", "bytes/commit")
	sizes := []int{3, 5, 7, 9}
	if cfg.Quick {
		sizes = []int{3, 5}
	}
	const w = 2
	for _, n := range sizes {
		for _, proto := range harness.Protocols {
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Seed:     cfg.seed(101),
				Engine:   harness.PaperConfig(proto),
				Workload: workload.Spec{
					Sites: n, Count: cfg.txns(200), Window: 20 * time.Second,
					Keys: 4096, ReadsPerTxn: 1, WritesPerTxn: w, Seed: cfg.seed(11),
				},
			})
			if err != nil {
				return rep, err
			}
			rep.record(fmt.Sprintf("n=%d", n), res)
			an := analyticMsgs(proto, n, w)
			tbl.Add(n, proto, res.ProtocolMsgsPerCommit, an, res.LogicalBroadcasts/float64(res.Committed), res.BytesPerCommit)
			key := fmt.Sprintf("%s/n=%d", proto, n)
			rep.Metrics[key+"/msgs_per_commit"] = res.ProtocolMsgsPerCommit
			if res.ProtocolMsgsPerCommit < 0.85*an || res.ProtocolMsgsPerCommit > 1.15*an {
				rep.violate("E1 %s n=%d: measured %.1f vs analytic %.1f", proto, n, res.ProtocolMsgsPerCommit, an)
			}
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// analyticMsgs is the closed-form unicast count per committed update
// transaction with w write operations at n sites, no conflicts.
func analyticMsgs(proto string, n, w int) float64 {
	switch proto {
	case harness.ProtoBaseline:
		return float64(2*w*(n-1) + 3*(n-1))
	case harness.ProtoReliable:
		return float64(2*w*(n-1) + (n - 1) + n*(n-1))
	case harness.ProtoCausal:
		return float64((w + 1) * (n - 1))
	case harness.ProtoAtomic:
		return float64((w+1)*(n-1) + (n - 1))
	default:
		return 0
	}
}

// E2CommitLatency measures commit latency across cluster sizes. Paper
// claim: R pays per-operation ack round trips plus the vote round; C
// pipelines writes and pays one implicit-ack wait; A pays a single
// total-order delivery.
func E2CommitLatency(cfg Config) (*Report, error) {
	rep := newReport("E2", "Commit latency (1-2ms links, w=2)")
	tbl := harness.NewTable(rep.Title, "sites", "protocol", "mean", "p50", "p99")
	sizes := []int{3, 5, 7}
	if cfg.Quick {
		sizes = []int{3, 5}
	}
	for _, n := range sizes {
		perProto := map[string]time.Duration{}
		for _, proto := range harness.Protocols {
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Link:     netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond},
				Seed:     cfg.seed(102),
				Engine:   harness.PaperConfig(proto),
				Workload: workload.Spec{
					Sites: n, Count: cfg.txns(200), Window: 20 * time.Second,
					Keys: 4096, ReadsPerTxn: 1, WritesPerTxn: 2, Seed: cfg.seed(12),
				},
			})
			if err != nil {
				return rep, err
			}
			rep.record(fmt.Sprintf("n=%d", n), res)
			tbl.Add(n, proto, res.UpdateLatency.Mean(), res.UpdateLatency.Quantile(0.5), res.UpdateLatency.Quantile(0.99))
			perProto[proto] = res.UpdateLatency.Mean()
			rep.Metrics[fmt.Sprintf("%s/n=%d/mean_latency_us", proto, n)] = float64(res.UpdateLatency.Mean().Microseconds())
		}
		// Expected shape: A commits after one ordered delivery, R pays
		// write-ack rounds plus votes, so A should beat R.
		if perProto[harness.ProtoAtomic] >= perProto[harness.ProtoReliable] {
			rep.violate("E2 n=%d: atomic latency %v not below reliable %v", n,
				perProto[harness.ProtoAtomic], perProto[harness.ProtoReliable])
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E3AbortContention sweeps hot-key contention. Paper claim: R and C abort
// conflicting writers via negative acknowledgements (never-wait rule); the
// blocking baseline trades aborts for queueing; A aborts only stale
// certifications. Read-only transactions never abort under the broadcast
// protocols at any contention level.
func E3AbortContention(cfg Config) (*Report, error) {
	rep := newReport("E3", "Abort rate vs contention (hot-set probability, 4 hot keys)")
	tbl := harness.NewTable(rep.Title, "hot-prob", "protocol", "committed", "aborted", "abort rate", "ro aborted")
	probs := []float64{0, 0.3, 0.6, 0.9}
	if cfg.Quick {
		probs = []float64{0, 0.6}
	}
	for _, p := range probs {
		for _, proto := range harness.Protocols {
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Seed:     cfg.seed(103),
				Engine:   harness.PaperConfig(proto),
				Workload: workload.Spec{
					Sites: 5, Count: cfg.txns(400), Window: 10 * time.Second,
					Keys: 512, HotKeys: 4, HotProb: p,
					ReadOnlyFraction: 0.25, ReadsPerTxn: 2, WritesPerTxn: 2, Seed: cfg.seed(13),
				},
			})
			if err != nil {
				return rep, err
			}
			rep.record(fmt.Sprintf("hot=%.1f", p), res)
			roAborted := res.Submitted - res.Committed - res.Aborted - res.ReadOnlyCommitted - res.Unfinished - res.Skipped
			// Aborted read-only transactions land in res.Aborted with their
			// reasons; separate them out by reason accounting.
			roAborts := res.AbortsByReason[core.ReasonWounded] // only the baseline wounds readers
			_ = roAborted
			tbl.Add(fmt.Sprintf("%.1f", p), proto, res.Committed, res.Aborted, harness.FormatPct(res.AbortRate()), roAborts)
			rep.Metrics[fmt.Sprintf("%s/hot=%.1f/abort_rate", proto, p)] = res.AbortRate()
			if proto != harness.ProtoBaseline && res.ReadOnlyCommitted == 0 && res.Submitted > 0 {
				rep.violate("E3 %s hot=%.1f: no read-only commits recorded", proto, p)
			}
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E4ThroughputSites measures committed update transactions per second as
// the cluster grows under a fixed cluster-wide offered load.
func E4ThroughputSites(cfg Config) (*Report, error) {
	rep := newReport("E4", "Throughput vs cluster size (fixed offered load)")
	tbl := harness.NewTable(rep.Title, "sites", "protocol", "committed/s", "abort rate", "msgs/commit")
	sizes := []int{3, 5, 7, 9}
	if cfg.Quick {
		sizes = []int{3, 7}
	}
	for _, n := range sizes {
		for _, proto := range harness.Protocols {
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Seed:     cfg.seed(104),
				Engine:   harness.PaperConfig(proto),
				Workload: workload.Spec{
					Sites: n, Count: cfg.txns(600), Window: 15 * time.Second,
					Keys: 128, ReadOnlyFraction: 0.2, ReadsPerTxn: 2, WritesPerTxn: 2, Seed: cfg.seed(14),
				},
			})
			if err != nil {
				return rep, err
			}
			rep.record(fmt.Sprintf("n=%d", n), res)
			tbl.Add(n, proto, res.ThroughputPerSec, harness.FormatPct(res.AbortRate()), res.ProtocolMsgsPerCommit)
			rep.Metrics[fmt.Sprintf("%s/n=%d/throughput", proto, n)] = res.ThroughputPerSec
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E5WriteMix sweeps the read-only fraction. Paper claim: read-only
// transactions are free (no broadcast) and never aborted by the broadcast
// protocols, so read-heavy mixes widen their advantage.
func E5WriteMix(cfg Config) (*Report, error) {
	rep := newReport("E5", "Workload mix: read-only fraction sweep (5 sites)")
	tbl := harness.NewTable(rep.Title, "ro-frac", "protocol", "upd committed", "ro committed", "abort rate", "msgs/commit")
	fracs := []float64{0, 0.25, 0.5, 0.75, 0.95}
	if cfg.Quick {
		fracs = []float64{0, 0.5, 0.95}
	}
	for _, f := range fracs {
		for _, proto := range harness.Protocols {
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Seed:     cfg.seed(105),
				Engine:   harness.PaperConfig(proto),
				Workload: workload.Spec{
					Sites: 5, Count: cfg.txns(400), Window: 10 * time.Second,
					Keys: 64, HotKeys: 8, HotProb: 0.5,
					ReadOnlyFraction: f, ReadsPerTxn: 2, WritesPerTxn: 2, Seed: cfg.seed(15),
				},
			})
			if err != nil {
				return rep, err
			}
			rep.record(fmt.Sprintf("ro=%.2f", f), res)
			tbl.Add(fmt.Sprintf("%.0f%%", 100*f), proto, res.Committed, res.ReadOnlyCommitted,
				harness.FormatPct(res.AbortRate()), res.ProtocolMsgsPerCommit)
			rep.Metrics[fmt.Sprintf("%s/ro=%.2f/abort_rate", proto, f)] = res.AbortRate()
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E6CausalHeartbeat sweeps protocol C's null-broadcast interval at low
// offered load — quantifying the paper's stated drawback ("the wait for
// implicit acknowledgments can become a drawback resulting in substantial
// delays") and the cost of the mitigation.
func E6CausalHeartbeat(cfg Config) (*Report, error) {
	rep := newReport("E6", "Protocol C: implicit-ack stall vs heartbeat interval (low load)")
	tbl := harness.NewTable(rep.Title, "heartbeat", "mean commit", "p99 commit", "unfinished", "background msg/s")
	intervals := []time.Duration{0, 10 * time.Millisecond, 25 * time.Millisecond,
		100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second}
	if cfg.Quick {
		intervals = []time.Duration{0, 25 * time.Millisecond, 500 * time.Millisecond}
	}
	for _, hb := range intervals {
		ecfg := core.Config{CausalHeartbeat: hb}
		res, err := harness.Run(harness.Options{
			Protocol: harness.ProtoCausal,
			Seed:     cfg.seed(106),
			Engine:   ecfg,
			Drain:    5 * time.Second, // bounded: with hb=0 some commits stall forever
			Workload: workload.Spec{
				Sites: 5, Count: cfg.txns(60), Window: 30 * time.Second,
				Keys: 1024, ReadsPerTxn: 1, WritesPerTxn: 2, Seed: cfg.seed(16),
			},
		})
		if err != nil {
			return rep, err
		}
		label := hb.String()
		if hb == 0 {
			label = "off"
		}
		rep.record("hb="+label, res)
		tbl.Add(label, res.UpdateLatency.Mean(), res.UpdateLatency.Quantile(0.99), res.Unfinished, res.BackgroundMsgsPerSec)
		rep.Metrics[fmt.Sprintf("hb=%s/mean_latency_us", label)] = float64(res.UpdateLatency.Mean().Microseconds())
		rep.Metrics[fmt.Sprintf("hb=%s/unfinished", label)] = float64(res.Unfinished)
		if hb == 0 && res.Unfinished == 0 {
			rep.violate("E6: disabling heartbeats at low load should stall some commits")
		}
		if hb == 25*time.Millisecond && res.Unfinished > 0 {
			rep.violate("E6: 25ms heartbeats should clear all commits, %d unfinished", res.Unfinished)
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E7Availability crashes one site mid-run. Paper claim: with
// majority-quorum views the system keeps committing; protocol A does not
// even pause (no acknowledgements to miss), while R and C pause for the
// view change.
func E7Availability(cfg Config) (*Report, error) {
	rep := newReport("E7", "Availability under a site crash at t=5s (5 sites, membership on)")
	tbl := harness.NewTable(rep.Title, "protocol", "committed pre", "committed post", "unfinished", "skipped", "abort rate")
	crashAt := 5 * time.Second
	for _, proto := range []string{harness.ProtoReliable, harness.ProtoCausal, harness.ProtoAtomic} {
		ecfg := harness.PaperConfig(proto)
		ecfg.FailureInterval = 50 * time.Millisecond
		ecfg.FailureTimeout = 250 * time.Millisecond
		res, err := harness.Run(harness.Options{
			Protocol: proto,
			Seed:     cfg.seed(107),
			Engine:   ecfg,
			Faults:   []harness.Fault{{At: crashAt, Crash: 4}},
			Workload: workload.Spec{
				Sites: 5, Count: cfg.txns(300), Window: 15 * time.Second,
				Keys: 256, ReadsPerTxn: 1, WritesPerTxn: 2, Seed: cfg.seed(17),
			},
		})
		if err != nil {
			return rep, err
		}
		rep.record("crash", res)
		pre, post := 0, 0
		for _, at := range res.CommitTimes {
			if at < crashAt {
				pre++
			} else {
				post++
			}
		}
		tbl.Add(proto, pre, post, res.Unfinished, res.Skipped, harness.FormatPct(res.AbortRate()))
		rep.Metrics[proto+"/post_crash_commits"] = float64(post)
		if post == 0 {
			rep.violate("E7 %s: no commits after the crash — availability lost", proto)
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E8Ablation studies the design alternatives DESIGN.md calls out: the
// total-order implementation (fixed sequencer vs ISIS agreed timestamps)
// and reliable-broadcast relaying under message loss.
func E8Ablation(cfg Config) (*Report, error) {
	rep := newReport("E8", "Ablations: total-order implementation; relaying under loss")

	ord := harness.NewTable("Protocol A: sequencer vs ISIS ordering (5 sites)",
		"ordering", "msgs/commit", "mean commit", "p99 commit")
	for _, mode := range []struct {
		name string
		m    broadcast.AtomicMode
	}{{"sequencer", broadcast.AtomicSequencer}, {"isis", broadcast.AtomicIsis}} {
		ecfg := harness.PaperConfig(harness.ProtoAtomic)
		ecfg.AtomicMode = mode.m
		res, err := harness.Run(harness.Options{
			Protocol: harness.ProtoAtomic,
			Link:     netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond},
			Seed:     cfg.seed(108),
			Engine:   ecfg,
			Workload: workload.Spec{
				Sites: 5, Count: cfg.txns(200), Window: 10 * time.Second,
				Keys: 1024, ReadsPerTxn: 1, WritesPerTxn: 2, Seed: cfg.seed(18),
			},
		})
		if err != nil {
			return rep, err
		}
		rep.record("order="+mode.name, res)
		ord.Add(mode.name, res.ProtocolMsgsPerCommit, res.UpdateLatency.Mean(), res.UpdateLatency.Quantile(0.99))
		rep.Metrics["order="+mode.name+"/msgs_per_commit"] = res.ProtocolMsgsPerCommit
	}
	rep.Tables = append(rep.Tables, ord)

	loss := harness.NewTable("Protocol R under 10% message loss: eager relay on/off (4 sites)",
		"relay", "committed", "unfinished", "msgs/commit")
	for _, relay := range []bool{false, true} {
		res, err := harness.Run(harness.Options{
			Protocol: harness.ProtoReliable,
			Link:     netsim.Lossy{Inner: netsim.Fixed{Delay: time.Millisecond}, P: 0.10},
			Seed:     cfg.seed(109),
			Engine:   core.Config{Relay: relay},
			Drain:    10 * time.Second,
			Workload: workload.Spec{
				Sites: 4, Count: cfg.txns(150), Window: 15 * time.Second,
				Keys: 1024, ReadsPerTxn: 0, WritesPerTxn: 1, Seed: cfg.seed(19),
			},
		})
		if err != nil {
			return rep, err
		}
		rep.record(fmt.Sprintf("relay=%v", relay), res)
		loss.Add(relay, res.Committed, res.Unfinished, res.MsgsPerCommit)
		rep.Metrics[fmt.Sprintf("relay=%v/committed", relay)] = float64(res.Committed)
	}
	rep.Tables = append(rep.Tables, loss)
	return rep, nil
}

// E9Batching measures the deferred-write (batching) optimization for
// protocols R and C: one WriteBatch broadcast replaces the per-operation
// stream, collapsing R's per-op acknowledgement rounds into one. This is
// the direction the group-communication replication literature that grew
// out of this paper (and systems like Postgres-R and Galera) took.
func E9Batching(cfg Config) (*Report, error) {
	rep := newReport("E9", "Deferred-write batching ablation (5 sites, w=4 writes)")
	tbl := harness.NewTable(rep.Title, "protocol", "mode", "msgs/commit", "mean commit", "abort rate")
	const w = 4
	for _, proto := range []string{harness.ProtoReliable, harness.ProtoCausal} {
		for _, batch := range []bool{false, true} {
			ecfg := harness.PaperConfig(proto)
			ecfg.BatchWrites = batch
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Link:     netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond},
				Seed:     cfg.seed(110),
				Engine:   ecfg,
				Workload: workload.Spec{
					Sites: 5, Count: cfg.txns(200), Window: 10 * time.Second,
					Keys: 64, HotKeys: 8, HotProb: 0.3,
					ReadsPerTxn: 1, WritesPerTxn: w, Seed: cfg.seed(20),
				},
			})
			if err != nil {
				return rep, err
			}
			mode := "stream"
			if batch {
				mode = "batch"
			}
			rep.record(mode, res)
			tbl.Add(proto, mode, res.ProtocolMsgsPerCommit, res.UpdateLatency.Mean(), harness.FormatPct(res.AbortRate()))
			rep.Metrics[fmt.Sprintf("%s/%s/msgs_per_commit", proto, mode)] = res.ProtocolMsgsPerCommit
			rep.Metrics[fmt.Sprintf("%s/%s/mean_latency_us", proto, mode)] = float64(res.UpdateLatency.Mean().Microseconds())
		}
	}
	if rep.Metrics["reliable/batch/msgs_per_commit"] >= rep.Metrics["reliable/stream/msgs_per_commit"] {
		rep.violate("E9: batching did not reduce protocol R messages")
	}
	if rep.Metrics["causal/batch/msgs_per_commit"] >= rep.Metrics["causal/stream/msgs_per_commit"] {
		rep.violate("E9: batching did not reduce protocol C messages")
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E10Quorum contrasts the broadcast-ROWA family with Gifford's
// majority-quorum replica control — the other classical point-to-point
// approach the paper's introduction situates itself against. Two cuts:
//
//  1. read cost: quorum reads pay two network rounds per key and shared
//     locks at a majority, where the broadcast protocols read locally for
//     free — so read-heavy mixes separate the families dramatically;
//  2. availability mechanics: a quorum system rides through a minority
//     crash with no failure detector at all, while the broadcast ROWA
//     protocols must wait out detection and a view change.
func E10Quorum(cfg Config) (*Report, error) {
	rep := newReport("E10", "Quorum vs broadcast ROWA: read cost and detector-free availability")

	costs := harness.NewTable("Per-commit cost, 75% read-only mix (5 sites, 2 reads + 2 writes)",
		"protocol", "msgs/commit", "ro committed", "mean ro latency", "mean upd latency")
	for _, proto := range []string{harness.ProtoQuorum, harness.ProtoCausal, harness.ProtoAtomic} {
		res, err := harness.Run(harness.Options{
			Protocol: proto,
			Link:     netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond},
			Seed:     cfg.seed(111),
			Engine:   harness.PaperConfig(proto),
			Workload: workload.Spec{
				Sites: 5, Count: cfg.txns(300), Window: 15 * time.Second,
				Keys: 128, ReadOnlyFraction: 0.75,
				ReadsPerTxn: 2, WritesPerTxn: 2, Seed: cfg.seed(21),
			},
		})
		if err != nil {
			return rep, err
		}
		rep.record("read-cost", res)
		costs.Add(proto, res.ProtocolMsgsPerCommit, res.ReadOnlyCommitted,
			res.ReadOnlyLatency.Mean(), res.UpdateLatency.Mean())
		rep.Metrics[proto+"/msgs_per_commit"] = res.ProtocolMsgsPerCommit
		rep.Metrics[proto+"/ro_latency_us"] = float64(res.ReadOnlyLatency.Mean().Microseconds())
	}
	// Broadcast read-only transactions are local: effectively zero latency
	// and zero messages; quorum read-only transactions pay real rounds.
	if rep.Metrics["quorum/ro_latency_us"] <= rep.Metrics["causal/ro_latency_us"] {
		rep.violate("E10: quorum read-only latency should exceed broadcast's local reads")
	}
	rep.Tables = append(rep.Tables, costs)

	avail := harness.NewTable("Crash at t=5s, NO failure detector anywhere (5 sites)",
		"protocol", "committed pre", "committed post", "unfinished")
	crashAt := 5 * time.Second
	for _, proto := range []string{harness.ProtoQuorum, harness.ProtoReliable, harness.ProtoCausal} {
		// Failure handling deliberately off: this measures what happens with
		// no detection machinery at all.
		res, err := harness.Run(harness.Options{
			Protocol: proto,
			Seed:     cfg.seed(112),
			Engine:   harness.PaperConfig(proto),
			Faults:   []harness.Fault{{At: crashAt, Crash: 4}},
			Drain:    5 * time.Second,
			Workload: workload.Spec{
				Sites: 5, Count: cfg.txns(200), Window: 10 * time.Second,
				Keys: 256, ReadsPerTxn: 1, WritesPerTxn: 2, Seed: cfg.seed(22),
			},
		})
		if err != nil {
			return rep, err
		}
		rep.record("detectorless-crash", res)
		pre, post := 0, 0
		for _, at := range res.CommitTimes {
			if at < crashAt {
				pre++
			} else {
				post++
			}
		}
		avail.Add(proto, pre, post, res.Unfinished)
		rep.Metrics[proto+"/detectorless_post_crash"] = float64(post)
		rep.Metrics[proto+"/detectorless_unfinished"] = float64(res.Unfinished)
	}
	if rep.Metrics["quorum/detectorless_post_crash"] == 0 {
		rep.violate("E10: quorum should commit through a minority crash without a detector")
	}
	if rep.Metrics["reliable/detectorless_unfinished"] == 0 {
		rep.violate("E10: detector-less protocol R should stall on the dead site's acks")
	}
	rep.Tables = append(rep.Tables, avail)
	return rep, nil
}

// E11SlowSite places one distant site (50ms links, vs 1-2ms LAN for the
// rest) in a 5-site cluster and measures commit latency across all homes
// (a fifth of the transactions are homed at the distant site itself and
// are legitimately slow under every protocol — the differentiation is in
// how much the OTHER four-fifths are dragged along).
// The acknowledgement structure decides who waits for the stragglers:
// protocols R and C cannot commit before the farthest site has
// (explicitly or implicitly) acknowledged, so their latency is gated by
// the slowest round trip; protocol A's home site commits as soon as its
// own site processes the totally ordered request — the distant site
// merely applies late. The ROWA baseline waits for the distant acks too.
func E11SlowSite(cfg Config) (*Report, error) {
	rep := newReport("E11", "One distant site (50ms vs 1-2ms LAN): who waits for the straggler?")
	tbl := harness.NewTable(rep.Title, "protocol", "mean commit", "p99", "vs all-LAN mean")
	overrides := map[[2]message.SiteID]time.Duration{}
	for i := message.SiteID(0); i < 4; i++ {
		overrides[[2]message.SiteID{i, 4}] = 50 * time.Millisecond
		overrides[[2]message.SiteID{4, i}] = 50 * time.Millisecond
	}
	mixed := netsim.PairOverride{
		Inner:     netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond},
		Overrides: overrides,
	}
	lan := netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond}
	spec := workload.Spec{
		Sites: 5, Count: cfg.txns(200), Window: 20 * time.Second,
		Keys: 2048, ReadsPerTxn: 1, WritesPerTxn: 2, Seed: cfg.seed(23),
	}
	for _, proto := range []string{harness.ProtoBaseline, harness.ProtoReliable, harness.ProtoCausal, harness.ProtoAtomic} {
		run := func(link sim.LinkModel) harness.Result {
			res, err := harness.Run(harness.Options{
				Protocol: proto, Link: link, Seed: cfg.seed(113),
				Engine: harness.PaperConfig(proto), Workload: spec,
				Drain: 60 * time.Second,
			})
			if err != nil {
				panic(err) // converted below
			}
			return res
		}
		var mixedRes, lanRes harness.Result
		if err := capture(func() { mixedRes = run(mixed); lanRes = run(lan) }); err != nil {
			return rep, err
		}
		rep.record("mixed", mixedRes)
		rep.record("lan", lanRes)
		ratio := float64(mixedRes.UpdateLatency.Mean()) / float64(lanRes.UpdateLatency.Mean())
		tbl.Add(proto, mixedRes.UpdateLatency.Mean(), mixedRes.UpdateLatency.Quantile(0.99),
			fmt.Sprintf("%.1fx", ratio))
		rep.Metrics[proto+"/slow_site_latency_ratio"] = ratio
	}
	// Protocol A should be far less affected than R (which must collect
	// the distant acknowledgements for every write operation).
	if rep.Metrics["atomic/slow_site_latency_ratio"] >= rep.Metrics["reliable/slow_site_latency_ratio"] {
		rep.violate("E11: atomic should be less straggler-gated than reliable (A=%.1fx R=%.1fx)",
			rep.Metrics["atomic/slow_site_latency_ratio"], rep.Metrics["reliable/slow_site_latency_ratio"])
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// capture converts a panic from the closure into an error (the nested
// closures above otherwise need triple error plumbing).
func capture(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("experiment panic: %v", r)
		}
	}()
	fn()
	return nil
}

// E12SnapshotReads ablates Config.SnapshotReadOnly for the lock-based
// protocols: with locking reads, a read-only transaction can queue behind
// the exclusive locks that in-flight writers hold from write delivery to
// commit decision; with snapshot reads it returns immediately from the
// local committed state. One-copy serializability is preserved either way
// (the read-only transaction observes its site's committed prefix, a
// linear extension of the conflict order) — the test suite re-verifies
// this with the MVSG checker.
func E12SnapshotReads(cfg Config) (*Report, error) {
	rep := newReport("E12", "Read-only snapshot reads vs locking reads (R and C, hot-key write load)")
	tbl := harness.NewTable(rep.Title, "protocol", "ro reads", "mean ro latency", "p99 ro latency", "upd abort rate")
	for _, proto := range []string{harness.ProtoReliable, harness.ProtoCausal} {
		for _, snapshot := range []bool{false, true} {
			ecfg := harness.PaperConfig(proto)
			ecfg.SnapshotReadOnly = snapshot
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Link:     netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond},
				Seed:     cfg.seed(114),
				Engine:   ecfg,
				Workload: workload.Spec{
					Sites: 5, Count: cfg.txns(400), Window: 8 * time.Second,
					Keys: 16, HotKeys: 2, HotProb: 0.8,
					ReadOnlyFraction: 0.5, ReadsPerTxn: 3, WritesPerTxn: 2, Seed: cfg.seed(24),
				},
			})
			if err != nil {
				return rep, err
			}
			mode := "locking"
			if snapshot {
				mode = "snapshot"
			}
			rep.record(mode, res)
			tbl.Add(proto+"/"+mode, res.ReadOnlyCommitted,
				res.ReadOnlyLatency.Mean(), res.ReadOnlyLatency.Quantile(0.99),
				harness.FormatPct(res.AbortRate()))
			rep.Metrics[fmt.Sprintf("%s/%s/ro_p99_us", proto, mode)] =
				float64(res.ReadOnlyLatency.Quantile(0.99).Microseconds())
		}
		if rep.Metrics[proto+"/snapshot/ro_p99_us"] > rep.Metrics[proto+"/locking/ro_p99_us"] {
			rep.violate("E12 %s: snapshot reads did not improve read-only tail latency", proto)
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E13GroupCommit runs the shared commit pipeline's group commit — the
// self-clocked, offloaded pipeline a deployment runs, on the simulator's
// virtual disk — against per-record fsync: a write-heavy reliable-protocol
// workload on real per-site segmented WALs. The gate is the mechanism, which
// is deterministic in virtual time: commits that arrive during one sync
// share the next, so the group arm averages at least two records per fsync
// and loses no transaction. The wall-clock throughputs and their ratio are
// reported for orientation only (they measure the runner's disk); what
// batching buys in wall time is bench/'s to measure.
func E13GroupCommit(cfg Config) (*Report, error) {
	rep := newReport("E13", "Group commit: batched fsync vs per-record fsync (reliable, write-heavy)")
	tbl := harness.NewTable(rep.Title, "mode", "committed", "fsyncs/site", "wall time", "txn/s (wall)")
	root, err := os.MkdirTemp("", "e13-wal-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(root)
	wall := make(map[string]float64)
	committed := make(map[string]int)
	// Scale the arrival window with the transaction count so quick runs keep
	// the same arrival density (and hence the same batch-formation rate).
	n := cfg.txns(400)
	window := time.Duration(n) * 750 * time.Microsecond
	for _, mode := range []string{"sync-each", "group"} {
		ecfg := harness.PaperConfig(harness.ProtoReliable)
		if mode == "group" {
			ecfg.GroupCommit = commitpipe.Policy{MaxBatch: 2}
		}
		var wals []*storage.WAL
		var engines []core.Engine
		// The arrival window is deliberately tight: commits must arrive
		// within one sync of each other for batches to form, mirroring the
		// saturated write-heavy load group commit exists for.
		opts := harness.Options{
			Protocol: harness.ProtoReliable,
			Link:     netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond},
			Seed:     cfg.seed(130),
			Engine:   ecfg,
			Workload: workload.Spec{
				Sites: 3, Count: n, Window: window,
				Keys: 512, ReadsPerTxn: 0, WritesPerTxn: 4, Seed: cfg.seed(31),
			},
			WAL: func(site message.SiteID) *storage.WAL {
				w, werr := storage.OpenSegments(filepath.Join(root, mode, fmt.Sprintf("site-%d", site)), 0)
				if werr != nil {
					panic(werr)
				}
				wals = append(wals, w)
				return w
			},
			Engines: &engines,
		}
		start := time.Now()
		res, rerr := harness.Run(opts)
		elapsed := time.Since(start)
		var flushes int64
		for _, e := range engines {
			e.Pipeline().Flush()
			flushes += e.Pipeline().Flushes
		}
		for _, w := range wals {
			if cerr := w.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if rerr != nil {
			return rep, rerr
		}
		if err != nil {
			return rep, err
		}
		rep.record(mode, res)
		wall[mode] = elapsed.Seconds()
		committed[mode] = res.Committed
		perSec := float64(res.Committed) / elapsed.Seconds()
		fsyncsPerSite := "per-record"
		if mode == "group" {
			perSite := float64(flushes) / float64(res.Sites)
			fsyncsPerSite = fmt.Sprintf("%.0f", perSite)
			// Every site installs every commit, so a site's records are the
			// committed count.
			rep.Metrics["group/records_per_fsync"] = ratioOr(float64(res.Committed), perSite, 0)
		}
		tbl.Add(mode, res.Committed, fsyncsPerSite, elapsed.Round(time.Millisecond), fmt.Sprintf("%.0f", perSec))
		rep.Metrics[mode+"/wall_txn_per_sec"] = perSec
	}
	speedup := 0.0
	if wall["group"] > 0 && committed["sync-each"] > 0 {
		speedup = (float64(committed["group"]) / wall["group"]) /
			(float64(committed["sync-each"]) / wall["sync-each"])
	}
	rep.Metrics["group_commit_speedup"] = speedup
	if committed["group"] < committed["sync-each"] {
		rep.violate("E13: group commit lost transactions (%d < %d)", committed["group"], committed["sync-each"])
	}
	if r := rep.Metrics["group/records_per_fsync"]; r < 2 {
		rep.violate("E13: group commit averaged %.2f records per fsync < 2", r)
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E15CheckpointRecovery measures the two costs the checkpoint subsystem is
// built to bound, each against its ablation:
//
// Part A (restart replay): a write-heavy reliable run against real segmented
// WALs, with and without a background interval checkpointer. Recovery cost
// is the number of WAL records checkpoint.Recover replays above the newest
// checkpoint. Without checkpoints that is the entire history — it doubles
// when the history doubles. With checkpoints it is the suffix since the last
// checkpoint, bounded by the checkpoint cadence and flat in history length.
//
// Part B (rejoin transfer): an atomic cluster partitions one site away long
// enough to outrun the donors' retransmission window, then heals; the
// rejoining site catches up through a chunked state transfer. With delta
// negotiation the donor ships only versions above the rejoiner's advertised
// applied index — bytes proportional to the commits missed, flat in total
// history. The FullResync ablation always requests the whole store — bytes
// proportional to history.
func E15CheckpointRecovery(cfg Config) (*Report, error) {
	rep := newReport("E15", "Checkpointing: O(delta) restart replay and rejoin transfer")
	root, err := os.MkdirTemp("", "e15-ckpt-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(root)

	// --- Part A: WAL records replayed by restart recovery ---
	tblA := harness.NewTable("Restart replay at site 0: WAL records applied by checkpoint.Recover",
		"history H", "mode", "committed", "ckpt index", "replayed", "segs truncated")
	const segBytes = 4096
	sizesA := []int{240, 480}
	if cfg.Quick {
		sizesA = []int{120, 240}
	}
	replayed := make(map[string]float64)
	for _, h := range sizesA {
		for _, mode := range []string{"full-replay", "checkpoint"} {
			var wals []*storage.WAL
			var engines []core.Engine
			var dir0 string
			dirFor := func(site message.SiteID) string {
				return filepath.Join(root, fmt.Sprintf("a-%s-%d", mode, h), fmt.Sprintf("site-%d", site))
			}
			opts := harness.Options{
				Protocol: harness.ProtoReliable,
				Link:     netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond},
				Seed:     cfg.seed(150),
				Engine:   harness.PaperConfig(harness.ProtoReliable),
				Workload: workload.Spec{
					Sites: 3, Count: h, Window: time.Duration(h) * 750 * time.Microsecond,
					Keys: 8192, ReadsPerTxn: 0, WritesPerTxn: 2, Seed: cfg.seed(51),
				},
				WAL: func(site message.SiteID) *storage.WAL {
					w, werr := storage.OpenSegments(dirFor(site), segBytes)
					if werr != nil {
						panic(werr)
					}
					if site == 0 {
						dir0 = dirFor(site)
					}
					wals = append(wals, w)
					return w
				},
				Engines: &engines,
			}
			if mode == "checkpoint" {
				opts.Checkpoint = func(site message.SiteID) checkpoint.Policy {
					return checkpoint.Policy{Dir: dirFor(site), Interval: 25 * time.Millisecond, Retain: 2}
				}
			}
			res, rerr := harness.Run(opts)
			for _, e := range engines {
				e.Pipeline().Flush()
			}
			truncated := 0
			if mode == "checkpoint" && len(engines) > 0 && engines[0].Checkpointer() != nil {
				truncated = engines[0].Checkpointer().Stats().SegmentsTruncated
			}
			for _, w := range wals {
				if cerr := w.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
			if rerr != nil {
				return rep, rerr
			}
			if err != nil {
				return rep, err
			}
			label := fmt.Sprintf("%s/H=%d", mode, h)
			rep.record(label, res)
			_, w, info, rerr := checkpoint.Recover(dir0, segBytes)
			if rerr != nil {
				return rep, fmt.Errorf("E15 recover %s: %w", label, rerr)
			}
			w.Close()
			replayed[label] = float64(info.Replayed)
			tblA.Add(h, mode, res.Committed, info.CheckpointIndex, info.Replayed, truncated)
			rep.Metrics[label+"/replayed"] = float64(info.Replayed)
			rep.Metrics[label+"/ckpt_index"] = float64(info.CheckpointIndex)
			if mode == "checkpoint" && truncated == 0 {
				rep.violate("E15: checkpointer truncated no WAL segments at H=%d", h)
			}
		}
	}
	// Gates: replay after a checkpointed run stays flat as history doubles
	// (constant cadence bound, with a small absolute allowance for the final
	// suffix); replay without checkpoints tracks history; and at the largest
	// history the checkpointed recovery replays at most half the ablation's.
	hs, hb := sizesA[0], sizesA[len(sizesA)-1]
	cs, cb := replayed[fmt.Sprintf("checkpoint/H=%d", hs)], replayed[fmt.Sprintf("checkpoint/H=%d", hb)]
	fs, fb := replayed[fmt.Sprintf("full-replay/H=%d", hs)], replayed[fmt.Sprintf("full-replay/H=%d", hb)]
	if cb > 1.25*cs+24 {
		rep.violate("E15: checkpointed replay grew %.0f -> %.0f records as H doubled (not flat)", cs, cb)
	}
	if fb < 1.6*fs {
		rep.violate("E15: full replay %.0f -> %.0f records did not track history (ablation broken?)", fs, fb)
	}
	if cb > 0.5*fb {
		rep.violate("E15: checkpointed replay %.0f > 50%% of full replay %.0f at H=%d", cb, fb, hb)
	}
	rep.Metrics["replay_ratio_checkpoint"] = ratioOr(cb, cs, 0)
	rep.Metrics["replay_ratio_full"] = ratioOr(fb, fs, 0)
	rep.Tables = append(rep.Tables, tblA)

	// --- Part B: rejoin state-transfer bytes after a heal ---
	tblB := harness.NewTable("Rejoin transfer: snapshot-chunk traffic after a partition heals",
		"history H", "mode", "committed", "unfinished", "chunk msgs", "chunk bytes")
	const (
		during = 60  // arrivals while partitioned (> retention, so retransmission cannot serve)
		post   = 600 // arrivals after the heal: ordered traffic that exposes the gap and keeps the run alive through catch-up
	)
	sizesB := []int{1200, 2400}
	if cfg.Quick {
		sizesB = []int{600, 1200}
	}
	chunkBytes := make(map[string]float64)
	for _, h := range sizesB {
		for _, mode := range []string{"delta", "full"} {
			ecfg := harness.PaperConfig(harness.ProtoAtomic)
			ecfg.AtomicMode = broadcast.AtomicSequencer
			// The gap probe only runs with a failure detector; the partition
			// stays shorter than the failure timeout so no view change
			// intervenes — catch-up goes through gap detection, not a
			// rejoin view.
			ecfg.FailureInterval = 30 * time.Millisecond
			ecfg.FailureTimeout = 150 * time.Millisecond
			// A short retransmission window forces the rejoin onto the
			// snapshot path, and a tight probe keeps the catch-up latency
			// (which adds commits to every transfer) small against H.
			ecfg.HistoryRetention = 8
			ecfg.GapProbeInterval = 25 * time.Millisecond
			ecfg.FullResync = mode == "full"
			count := h + during + post
			spacing := time.Millisecond
			res, rerr := harness.Run(harness.Options{
				Protocol: harness.ProtoAtomic,
				Link:     netsim.Uniform{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond},
				Seed:     cfg.seed(151),
				Engine:   ecfg,
				Workload: workload.Spec{
					// Site 2 is a pure replica (OriginSites 2): a site that
					// lives through a partition cannot replay broadcasts its
					// peers never received — only restart recovery resets
					// send sequences — so the rejoiner must not originate.
					Sites: 3, OriginSites: 2, Count: count, Window: time.Duration(count) * spacing,
					Keys: 16384, ReadsPerTxn: 0, WritesPerTxn: 2, Seed: cfg.seed(52),
				},
				NetEvents: []harness.NetEvent{
					{At: time.Duration(h) * spacing, Groups: [][]message.SiteID{{0, 1}, {2}}},
					{At: time.Duration(h+during) * spacing, Heal: true},
				},
			})
			if rerr != nil {
				return rep, rerr
			}
			label := fmt.Sprintf("%s/H=%d", mode, h)
			rep.record(label, res)
			msgs := res.Net.ByKind[message.KindSnapshotChunk]
			bytes := float64(res.Net.KindBytes[message.KindSnapshotChunk])
			chunkBytes[label] = bytes
			tblB.Add(h, mode, res.Committed, res.Unfinished, msgs, fmt.Sprintf("%.0f", bytes))
			rep.Metrics[label+"/chunk_msgs"] = float64(msgs)
			rep.Metrics[label+"/chunk_bytes"] = bytes
			if bytes == 0 {
				rep.violate("E15: no snapshot-chunk traffic in %s (rejoin never escalated to a transfer)", label)
			}
		}
	}
	// Gates mirror Part A's: delta transfer bytes stay flat as history
	// doubles (the commits missed are held constant), the full-resync
	// ablation tracks history, and delta costs at most half of full at the
	// largest history.
	hs, hb = sizesB[0], sizesB[len(sizesB)-1]
	ds, db := chunkBytes[fmt.Sprintf("delta/H=%d", hs)], chunkBytes[fmt.Sprintf("delta/H=%d", hb)]
	fs, fb = chunkBytes[fmt.Sprintf("full/H=%d", hs)], chunkBytes[fmt.Sprintf("full/H=%d", hb)]
	if db > 1.25*ds+4096 {
		rep.violate("E15: delta transfer grew %.0f -> %.0f bytes as H doubled (not flat)", ds, db)
	}
	if fb < 1.6*fs {
		rep.violate("E15: full-resync transfer %.0f -> %.0f bytes did not track history (ablation broken?)", fs, fb)
	}
	if db > 0.5*fb {
		rep.violate("E15: delta transfer %.0f bytes > 50%% of full resync %.0f at H=%d", db, fb, hb)
	}
	rep.Metrics["transfer_ratio_delta"] = ratioOr(db, ds, 0)
	rep.Metrics["transfer_ratio_full"] = ratioOr(fb, fs, 0)
	rep.Tables = append(rep.Tables, tblB)
	return rep, nil
}

// ratioOr returns num/den, or def when the denominator is zero.
func ratioOr(num, den, def float64) float64 {
	if den == 0 {
		return def
	}
	return num / den
}

// E14OrdererBatching compares the two atomic-broadcast ordering modes — the
// ISIS agreed-timestamp protocol and the leader-based batching orderer —
// under a saturating burst of update transactions on a sender-serialised
// network (netsim.SharedMedium), where every message genuinely occupies its
// sender's transmitter and message count therefore costs throughput. ISIS
// pays ~3(n-1) unicasts per commit (payload dissemination, n-1 timestamp
// proposals, n-1 final timestamps); the batching orderer amortises ordering
// to (n-1)/B announcements per commit on top of the same dissemination, so
// its ordering traffic per site stays flat as the cluster grows.
func E14OrdererBatching(cfg Config) (*Report, error) {
	rep := newReport("E14", "Ordering modes under load: ISIS timestamps vs batching orderer (shared medium)")
	tbl := harness.NewTable(rep.Title,
		"sites", "mode", "committed", "msgs/commit", "msgs/commit/site", "txn/s")
	modes := []struct {
		name string
		mode broadcast.AtomicMode
	}{
		{"isis", broadcast.AtomicIsis},
		{"batch", broadcast.AtomicBatch},
	}
	sizes := []int{3, 9, 15}
	perSite := make(map[string]float64) // "mode/n" -> msgs per commit per site
	tput := make(map[string]float64)
	for _, n := range sizes {
		for _, m := range modes {
			ecfg := harness.PaperConfig(harness.ProtoAtomic)
			ecfg.AtomicMode = m.mode
			ecfg.CausalWrites = false // the write set rides the ordered request
			// A wide window lets the message budget (64) seal batches, so
			// ordering traffic stays ~(n-1)/64 per commit; with a tight
			// window the leader seals small batches and its transmitter —
			// which also carries its own payload dissemination — becomes
			// the bottleneck.
			ecfg.AtomicBatchWindow = 5 * time.Millisecond
			count := cfg.txns(900)
			res, err := harness.Run(harness.Options{
				Protocol: harness.ProtoAtomic,
				// Fresh SharedMedium per run: the model keeps per-sender
				// busy-horizon state.
				Link: &netsim.SharedMedium{
					Base:    300 * time.Microsecond,
					PerMsg:  150 * time.Microsecond,
					PerByte: 100 * time.Nanosecond,
				},
				Seed:   cfg.seed(140),
				Engine: ecfg,
				Workload: workload.Spec{
					// A tight arrival window (50µs spacing ≈ 20k txn/s
					// offered) saturates the medium so makespan is
					// wire-time-bound and message count shows up as
					// throughput.
					Sites: n, Count: count,
					Window: time.Duration(count) * 50 * time.Microsecond,
					Keys:   8192, ReadsPerTxn: 0, WritesPerTxn: 2,
					Seed: cfg.seed(41),
				},
			})
			if err != nil {
				return rep, err
			}
			label := fmt.Sprintf("%s/n=%d", m.name, n)
			rep.record(label, res)
			site := res.ProtocolMsgsPerCommit / float64(n)
			perSite[label] = site
			tput[label] = res.ThroughputPerSec
			tbl.Add(n, m.name, res.Committed,
				fmt.Sprintf("%.2f", res.ProtocolMsgsPerCommit),
				fmt.Sprintf("%.3f", site),
				fmt.Sprintf("%.0f", res.ThroughputPerSec))
			rep.Metrics[label+"/msgs_per_commit"] = res.ProtocolMsgsPerCommit
			rep.Metrics[label+"/msgs_per_commit_site"] = site
			rep.Metrics[label+"/throughput_per_sec"] = res.ThroughputPerSec
		}
	}
	// Gates: the batching orderer must (a) cost at most half of ISIS's
	// per-site message load at n=9, (b) keep that load flat (within 20%)
	// from n=9 to n=15, and (c) at least double ISIS's committed-txn
	// throughput at n=9 on the shared medium.
	if isis, batch := perSite["isis/n=9"], perSite["batch/n=9"]; isis > 0 && batch > 0.5*isis {
		rep.violate("E14: batch msgs/commit/site %.3f > 50%% of isis %.3f at n=9", batch, isis)
	}
	if b9, b15 := perSite["batch/n=9"], perSite["batch/n=15"]; b9 > 0 && b15 > 1.2*b9 {
		rep.violate("E14: batch msgs/commit/site grew %.3f -> %.3f (> 20%%) from n=9 to n=15", b9, b15)
	}
	ratio := 0.0
	if tput["isis/n=9"] > 0 {
		ratio = tput["batch/n=9"] / tput["isis/n=9"]
	}
	rep.Metrics["batch_vs_isis_throughput_n9"] = ratio
	if ratio < 2 {
		rep.violate("E14: batch throughput %.2fx of isis at n=9 (< 2x)", ratio)
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// E16PartialReplication measures what sharding the keyspace buys on a
// sender-serialised medium: per-site protocol messages per committed update
// transaction and throughput at n=9 as the keyspace splits into 1, 2, and 4
// replication groups (RF 9, 4, 3). A single-shard commit only involves its
// group's RF members — dissemination and ordering shrink from O(n) to O(RF)
// unicasts, plus a constant route/ack when the client's site is not a member
// — so per-site message load must fall strictly as the group count grows.
// The 10%% cross-shard arms price the certification round (per-group
// prepares, member votes to the coordinator, per-group decisions) that
// genuine partial replication pays for multi-group transactions.
func E16PartialReplication(cfg Config) (*Report, error) {
	rep := newReport("E16", "Partial replication: per-site message cost vs replication groups (n=9, shared medium)")
	tbl := harness.NewTable(rep.Title,
		"groups", "rf", "cross-shard", "committed", "aborted", "msgs/commit", "msgs/commit/site", "txn/s")
	// RF is chosen so every site replicates at least one group (the
	// deterministic placement staggers group starts around the site circle):
	// 2 groups of 5 share site 4; 4 groups of 3 tile the circle with single
	// shared sites.
	const n = 9
	arms := []struct{ groups, rf int }{{1, 9}, {2, 5}, {4, 3}}
	crosses := []float64{0, 0.10}
	perSite := make(map[string]float64)
	for _, arm := range arms {
		scfg := &shard.Config{Groups: arm.groups, RF: arm.rf}
		ring, err := shard.NewRing(*scfg, n)
		if err != nil {
			return rep, err
		}
		for _, cross := range crosses {
			if arm.groups == 1 && cross > 0 {
				continue // one group has no cross-shard transactions
			}
			ecfg := harness.PaperConfig(harness.ProtoAtomic)
			ecfg.Shard = scfg
			count := cfg.txns(600)
			res, err := harness.Run(harness.Options{
				Protocol: harness.ProtoAtomic,
				// Fresh SharedMedium per run (the model keeps per-sender
				// busy-horizon state); saturating arrivals as in E14 so
				// message count shows up as throughput.
				Link: &netsim.SharedMedium{
					Base:    300 * time.Microsecond,
					PerMsg:  150 * time.Microsecond,
					PerByte: 100 * time.Nanosecond,
				},
				Seed:   cfg.seed(160),
				Engine: ecfg,
				Workload: workload.Spec{
					Sites: n, Count: count,
					Window: time.Duration(count) * 50 * time.Microsecond,
					Keys:   8192, ReadsPerTxn: 0, WritesPerTxn: 2,
					Ring: ring, CrossShardFraction: cross,
					Seed: cfg.seed(61),
				},
			})
			if err != nil {
				return rep, err
			}
			label := fmt.Sprintf("groups=%d/cross=%d%%", arm.groups, int(cross*100))
			rep.record(label, res)
			site := res.ProtocolMsgsPerCommit / float64(n)
			perSite[label] = site
			tbl.Add(arm.groups, arm.rf, fmt.Sprintf("%d%%", int(cross*100)),
				res.Committed, res.Aborted,
				fmt.Sprintf("%.2f", res.ProtocolMsgsPerCommit),
				fmt.Sprintf("%.3f", site),
				fmt.Sprintf("%.0f", res.ThroughputPerSec))
			rep.Metrics[label+"/msgs_per_commit"] = res.ProtocolMsgsPerCommit
			rep.Metrics[label+"/msgs_per_commit_site"] = site
			rep.Metrics[label+"/throughput_per_sec"] = res.ThroughputPerSec
			rep.Metrics[label+"/abort_rate"] = res.AbortRate()
			if res.Unfinished > 0 {
				rep.violate("E16 %s: %d transactions never resolved", label, res.Unfinished)
			}
			if res.Committed == 0 {
				rep.violate("E16 %s: nothing committed", label)
			}
		}
	}
	// Gates: (a) with no cross-shard traffic, per-site message load must
	// fall strictly as the keyspace splits 1 -> 2 -> 4 groups; (b) even
	// paying the certification round on 10%% of transactions, 4 groups must
	// stay cheaper per site than full replication.
	g1, g2, g4 := perSite["groups=1/cross=0%"], perSite["groups=2/cross=0%"], perSite["groups=4/cross=0%"]
	if !(g2 < g1 && g4 < g2) {
		rep.violate("E16: per-site msgs/commit not strictly decreasing with group count: %.3f (1) -> %.3f (2) -> %.3f (4)", g1, g2, g4)
	}
	if c4 := perSite["groups=4/cross=10%"]; c4 >= g1 {
		rep.violate("E16: 4 groups at 10%% cross-shard (%.3f msgs/commit/site) not cheaper than full replication (%.3f)", c4, g1)
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// shardSpanStats replays cmd/tracecheck's cross-shard invariants over the
// in-memory spans of one run and extracts the chaos experiment's headline
// counters. Violations: replicas of a group disagreeing on a decision, a
// transaction committed in one touched group but aborted in another, a
// commit not covering the coordinator's touched mask, and the stuck-prepare
// case — a certified transaction with a touched group that never recorded a
// decision. Takeovers counts transactions a successor (or a self-
// terminating coordinator) opened a termination round for; crossCommits
// counts transactions that committed across two or more groups.
func shardSpanStats(tracers []*trace.Tracer) (violations []string, takeovers, crossCommits int) {
	byTrace := make(map[message.TxnID][]trace.Span)
	for _, tr := range tracers {
		for _, s := range tr.Spans() {
			if s.Trace != (message.TxnID{}) {
				byTrace[s.Trace] = append(byTrace[s.Trace], s)
			}
		}
	}
	ids := make([]message.TxnID, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		spans := byTrace[id]
		var mask uint64
		hasCoord, hasCert, hasTakeover := false, false, false
		decided := make(map[int32]int64)
		for _, s := range spans {
			switch s.Kind {
			case trace.KindShardCoord:
				hasCoord = true
				mask = s.Seq
			case trace.KindShardCert:
				hasCert = true
			case trace.KindShardTakeover:
				hasTakeover = true
			case trace.KindShardDecide:
				g := int32(s.Peer)
				if v, ok := decided[g]; ok && v != s.Extra {
					violations = append(violations, fmt.Sprintf("%v: group %d replicas disagree on the decision", id, g))
				}
				decided[g] = s.Extra
			}
		}
		if hasTakeover {
			takeovers++
		}
		if !hasCoord {
			continue
		}
		commits, aborts := 0, 0
		for _, v := range decided {
			if v == 1 {
				commits++
			} else {
				aborts++
			}
		}
		if commits > 0 && aborts > 0 {
			violations = append(violations, fmt.Sprintf("%v: atomicity violated — committed in %d group(s), aborted in %d", id, commits, aborts))
		}
		allCommit := commits > 0
		for g := int32(0); g < 64; g++ {
			if mask&(1<<uint(g)) == 0 {
				continue
			}
			if commits > 0 {
				if v, ok := decided[g]; !ok || v != 1 {
					violations = append(violations, fmt.Sprintf("%v: touched group %d missing a commit decision", id, g))
					allCommit = false
				}
			}
			if hasCert {
				if _, ok := decided[g]; !ok {
					violations = append(violations, fmt.Sprintf("%v: stuck prepare — certified but group %d never decided", id, g))
				}
			}
		}
		if allCommit && bits.OnesCount64(mask) >= 2 {
			crossCommits++
		}
	}
	return violations, takeovers, crossCommits
}

// E17ChaosFailover drives the cross-shard coordinator failover through a
// deterministic chaos schedule: 4 sites in 2 replication groups of RF 2
// (g0={0,1}, g1={2,3}), transactions originating at sites 0 and 1, half of
// them cross-shard. Site 1 — a group member but no group's leader, so
// killing it breaks no sequencer — coordinates roughly half the cross-shard
// traffic and is the victim. Message-triggered kills crash it at each phase
// of its certification round (first prepare delivery, first vote back,
// first decision out), and a scripted asymmetric partition cuts every link
// out of it (its sends vanish while it still hears the cluster — the
// classic trap where only the others' detectors fire) until a heal. Every
// arm must hold the cross-shard invariants: decisions atomic across the
// touched groups, no certified prepare stuck without a decision after the
// heal, zero pending coordinations or orphaned prepares on live sites, and
// the cluster keeps committing cross-shard transactions throughout — all
// without the victim ever restarting. Set E17_TRACE_DIR to export each
// arm's span dump as JSONL for cmd/tracecheck.
func E17ChaosFailover(cfg Config) (*Report, error) {
	rep := newReport("E17", "Chaos: coordinator failover under phase-targeted kills and asymmetric partitions")
	tbl := harness.NewTable(rep.Title,
		"arm", "committed", "aborted", "unfinished", "skipped", "takeovers", "cross-commits", "span violations")
	const n = 4
	const victim = message.SiteID(1)
	scfg := &shard.Config{Groups: 2, RF: 2}
	ring, err := shard.NewRing(*scfg, n)
	if err != nil {
		return rep, err
	}
	others := []message.SiteID{0, 2, 3}
	count := cfg.txns(240)
	spacing := 2 * time.Millisecond
	window := time.Duration(count) * spacing

	killVictim := func(match func(from, to message.SiteID, m message.Message) bool) []*harness.Trigger {
		return []*harness.Trigger{{Fire: func(from, to message.SiteID, m message.Message, _ time.Duration) *harness.ChaosEvent {
			if !match(from, to, m) {
				return nil
			}
			return &harness.ChaosEvent{Kill: []message.SiteID{victim}}
		}}}
	}
	cutVictim := func() (links [][2]message.SiteID) {
		for _, o := range others {
			links = append(links, [2]message.SiteID{victim, o})
		}
		return links
	}

	arms := []struct {
		name string
		// wan swaps the LAN for the per-pair WAN latency model (heavier
		// tails stress the detector's timeouts).
		wan      bool
		chaos    []harness.ChaosEvent
		triggers []*harness.Trigger
		// killed: the victim is dead at the end of the run; its pending
		// state is exempt from the no-stuck gate.
		killed bool
		// wantTakeover: the arm must orphan at least one prepare and see a
		// successor terminate it. (The post-decision kill intentionally
		// leaves nothing to take over: both groups already hold the
		// decision when the coordinator dies.)
		wantTakeover bool
	}{
		{name: "baseline"},
		{name: "kill-preprepare", killed: true, wantTakeover: true,
			triggers: killVictim(func(_, _ message.SiteID, m message.Message) bool {
				p, ok := harness.Payload(m).(*message.ShardPrepare)
				return ok && p.Coord == victim
			})},
		{name: "kill-postvote", killed: true, wantTakeover: true,
			triggers: killVictim(func(_, to message.SiteID, m message.Message) bool {
				_, ok := harness.Payload(m).(*message.ShardVote)
				return ok && to == victim
			})},
		{name: "kill-postdecision", killed: true,
			triggers: killVictim(func(from, _ message.SiteID, m message.Message) bool {
				_, ok := harness.Payload(m).(*message.ShardDecision)
				return ok && from == victim
			})},
		{name: "asym-partition-wan", wan: true, chaos: []harness.ChaosEvent{
			// Cut every link out of the victim a quarter into the window
			// and heal well past the detector timeout, so the others
			// suspect it and terminate its orphans while it is still live.
			{At: window / 4, BlockLinks: cutVictim()},
			{At: window/4 + 600*time.Millisecond, Heal: true},
		}},
	}

	for _, arm := range arms {
		ecfg := harness.PaperConfig(harness.ProtoAtomic)
		ecfg.Shard = scfg
		ecfg.FailureInterval = 20 * time.Millisecond
		ecfg.FailureTimeout = 100 * time.Millisecond
		var link sim.LinkModel = netsim.DefaultLAN()
		if arm.wan {
			link = netsim.DefaultWAN()
			// WAN tails (20ms base, 1% 60ms-mean spikes) need a laxer
			// timeout or false suspicion dominates the run.
			ecfg.FailureInterval = 30 * time.Millisecond
			ecfg.FailureTimeout = 250 * time.Millisecond
		}
		var engines []core.Engine
		res, rerr := harness.Run(harness.Options{
			Protocol: harness.ProtoAtomic,
			Link:     link,
			Seed:     cfg.seed(170),
			Engine:   ecfg,
			Workload: workload.Spec{
				Sites: n, OriginSites: 2, Count: count, Window: window,
				Keys: 4096, ReadsPerTxn: 0, WritesPerTxn: 2,
				Ring: ring, CrossShardFraction: 0.5,
				Seed: cfg.seed(71),
			},
			TraceCap: 1 << 15,
			Engines:  &engines,
			Chaos:    arm.chaos,
			Triggers: arm.triggers,
			Drain:    20 * time.Second,
		})
		if rerr != nil {
			return rep, rerr
		}
		rep.record(arm.name, res)
		violations, takeovers, crossCommits := shardSpanStats(res.Tracers)
		for _, v := range violations {
			rep.violate("E17 %s: %s", arm.name, v)
		}
		if dir := os.Getenv("E17_TRACE_DIR"); dir != "" {
			if err := exportShardTraces(dir, "e17-"+arm.name+".jsonl", res.Tracers, scfg.Groups); err != nil {
				return rep, err
			}
		}
		pending := 0
		for i, e := range engines {
			if arm.killed && message.SiteID(i) == victim {
				continue
			}
			se := e.(*core.ShardedEngine)
			pending += se.PendingCoord() + se.OrphanedPrepares()
		}
		if pending > 0 {
			rep.violate("E17 %s: %d pending coordinations/orphaned prepares on live sites after drain", arm.name, pending)
		}
		if res.Committed == 0 {
			rep.violate("E17 %s: nothing committed", arm.name)
		}
		if crossCommits == 0 {
			rep.violate("E17 %s: no cross-shard transaction committed", arm.name)
		}
		if arm.wantTakeover && takeovers == 0 {
			rep.violate("E17 %s: coordinator died with orphaned prepares but no takeover ran", arm.name)
		}
		if arm.name == "baseline" && (res.Unfinished > 0 || takeovers > 0) {
			rep.violate("E17 baseline: %d unfinished, %d takeovers (want 0/0)", res.Unfinished, takeovers)
		}
		tbl.Add(arm.name, res.Committed, res.Aborted, res.Unfinished, res.Skipped,
			takeovers, crossCommits, len(violations))
		rep.Metrics[arm.name+"/committed"] = float64(res.Committed)
		rep.Metrics[arm.name+"/unfinished"] = float64(res.Unfinished)
		rep.Metrics[arm.name+"/takeovers"] = float64(takeovers)
		rep.Metrics[arm.name+"/cross_commits"] = float64(crossCommits)
		rep.Metrics[arm.name+"/span_violations"] = float64(len(violations))
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

// exportShardTraces writes one arm's spans from every site as a JSONL dump
// cmd/tracecheck accepts (CI uploads these as artifacts on failure).
func exportShardTraces(dir, name string, tracers []*trace.Tracer, groups int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	for _, tr := range tracers {
		meta := trace.Meta{Site: int32(tr.Site()), Proto: "sharded", Sites: len(tracers), AtomicMode: "sequencer", Groups: groups}
		if err := trace.WriteJSONL(f, meta, tr.Spans()); err != nil {
			return err
		}
	}
	return f.Close()
}
