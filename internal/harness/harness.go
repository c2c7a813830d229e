// Package harness runs replication experiments end to end: it builds a
// simulated cluster for a chosen protocol, drives a generated workload
// through it, and collects the measurements the paper's evaluation needs —
// message and byte counts, commit latencies, abort rates by cause, and
// optional one-copy-serializability verification of the whole execution.
// Both the benchmark targets in bench_test.go and the cmd/benchrunner
// tables are thin wrappers around Run.
package harness

import (
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sgraph"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Protocol names accepted by Options.
const (
	ProtoReliable = "reliable"
	ProtoCausal   = "causal"
	ProtoAtomic   = "atomic"
	ProtoBaseline = "baseline"
	ProtoQuorum   = "quorum"
)

// Protocols lists the paper's engines in presentation order (the quorum
// baseline is extra and joins specific experiments).
var Protocols = []string{ProtoBaseline, ProtoReliable, ProtoCausal, ProtoAtomic}

// PaperConfig returns the engine settings the paper's analysis assumes for
// a protocol: R, C and A disseminate each write as it is staged (the
// paper's arm, core.Config.PerOpWrites) and C runs a 25 ms null-broadcast
// heartbeat. The experiments and the analytic message-count checks run it.
func PaperConfig(proto string) core.Config {
	cfg := core.Config{}
	switch proto {
	case ProtoReliable, ProtoAtomic:
		cfg.PerOpWrites = true
	case ProtoCausal:
		cfg.PerOpWrites = true
		cfg.CausalHeartbeat = 25 * time.Millisecond
	}
	return cfg
}

// Options configures one experiment run.
type Options struct {
	// Protocol selects the engine.
	Protocol string
	// Link is the network model; defaults to netsim.DefaultLAN().
	Link sim.LinkModel
	// Seed drives the network jitter (workload has its own seed).
	Seed int64
	// Engine is passed to every site's engine.
	Engine core.Config
	// Workload describes the transaction mix; its Sites field sets the
	// cluster size.
	Workload workload.Spec
	// Drain is how long past the arrival window the run may take to finish
	// in-flight transactions. Defaults to 30s of virtual time.
	Drain time.Duration
	// Check verifies one-copy serializability and replica consistency of
	// the full execution (adds recording overhead).
	Check bool
	// Faults schedules site crashes during the run (availability
	// experiments). Requires failure handling (Engine.FailureInterval > 0)
	// for the survivors to reconfigure.
	Faults []Fault
	// TraceCap, when positive, equips every site with a span tracer of
	// that capacity (see internal/trace); the tracers are returned in
	// Result.Tracers indexed by site.
	TraceCap int
	// WAL, when set, supplies each site's write-ahead log (durability and
	// group-commit experiments). It overrides Engine.WAL per site.
	WAL func(message.SiteID) *storage.WAL
	// Checkpoint, when set, supplies each site's checkpoint policy
	// (durability/rejoin experiments). It overrides Engine.Checkpoint per
	// site; Policy.Dir should match the site's WAL segment directory.
	Checkpoint func(message.SiteID) checkpoint.Policy
	// GroupWAL and GroupCheckpoint are the per-replication-group analogues
	// of WAL and Checkpoint for sharded runs (Engine.Shard set): each
	// (site, group) pair logs and checkpoints independently. They override
	// Engine.GroupWAL / Engine.GroupCheckpoint per site.
	GroupWAL        func(message.SiteID, message.GroupID) *storage.WAL
	GroupCheckpoint func(message.SiteID, message.GroupID) checkpoint.Policy
	// Engines, when non-nil, receives the constructed per-site engines so
	// callers can inspect them after the run (commit-pipeline counters,
	// final flushes).
	Engines *[]core.Engine
	// NetEvents schedules partitions and heals during the run (rejoin
	// experiments). Requires failure handling (Engine.FailureInterval > 0)
	// for the primary partition to reconfigure around the isolated sites.
	NetEvents []NetEvent
	// Chaos schedules scripted fault-injection events — kills, restarts,
	// partitions, directed link cuts, heals, clock skew — at virtual times
	// (see ChaosEvent). Unlike Faults/NetEvents it composes all fault types
	// in one schedule and supports restarts via Rebuild.
	Chaos []ChaosEvent
	// Triggers fire ChaosEvents off specific message deliveries, each at
	// most once (see Trigger). They drive phase-targeted kills like
	// "crash the coordinator on the first ShardDecision delivery".
	Triggers []*Trigger
	// Rebuild constructs a fresh engine for a site a ChaosEvent restarts,
	// recovering its durable state (WAL/checkpoint). Nil leaves restarted
	// sites down.
	Rebuild func(message.SiteID, env.Runtime) core.Engine
}

// Fault crashes one site at a virtual time.
type Fault struct {
	At    time.Duration
	Crash message.SiteID
}

// NetEvent partitions the network into groups at a virtual time, or heals
// it (Heal true; Groups ignored).
type NetEvent struct {
	At     time.Duration
	Groups [][]message.SiteID
	Heal   bool
}

// Result carries one run's measurements.
type Result struct {
	Protocol string
	Sites    int

	Submitted         int
	Committed         int // update transactions
	ReadOnlyCommitted int
	Aborted           int
	Unfinished        int
	// Skipped counts transactions whose home site was crashed at their
	// arrival time (clients of a dead site cannot submit).
	Skipped        int
	AbortsByReason map[core.AbortReason]int

	// UpdateLatency / ReadOnlyLatency measure arrival-to-outcome time of
	// committed transactions.
	UpdateLatency   *metrics.Histogram
	ReadOnlyLatency *metrics.Histogram

	// Net is the raw traffic; MsgsPerCommit and BytesPerCommit divide by
	// committed update transactions (read-only transactions send nothing).
	// BytesPerCommit excludes background (heartbeat/membership) bytes, like
	// ProtocolMsgsPerCommit.
	Net            sim.NetStats
	MsgsPerCommit  float64
	BytesPerCommit float64
	// ProtocolMsgsPerCommit excludes background traffic — protocol C's
	// CausalNull heartbeats and the failure-detector/membership messages —
	// isolating the per-transaction protocol cost the paper's analysis
	// counts. BackgroundMsgsPerSec reports the excluded traffic rate.
	ProtocolMsgsPerCommit float64
	BackgroundMsgsPerSec  float64
	// LogicalBroadcasts estimates broadcast operations (a hardware
	// broadcast network would carry each as one frame): broadcast envelope
	// unicasts divided by n-1. Only meaningful with relaying disabled.
	LogicalBroadcasts float64

	// Elapsed is the virtual time consumed; ThroughputPerSec is committed
	// update transactions per virtual second.
	Elapsed          time.Duration
	ThroughputPerSec float64
	// CommitTimes records when each update transaction committed, for
	// before/after-fault analyses.
	CommitTimes []time.Duration

	// CheckErr reports a serializability or replica-consistency violation
	// when Options.Check was set.
	CheckErr error

	// Tracers holds one span recorder per site when Options.TraceCap was
	// positive; nil otherwise.
	Tracers []*trace.Tracer
}

// AbortRate returns aborted / (committed+aborted) among update
// transactions.
func (r Result) AbortRate() float64 {
	den := r.Committed + r.Aborted
	if den == 0 {
		return 0
	}
	return float64(r.Aborted) / float64(den)
}

// Run executes one experiment.
func Run(opts Options) (Result, error) {
	res := Result{
		Protocol:        opts.Protocol,
		AbortsByReason:  make(map[core.AbortReason]int),
		UpdateLatency:   metrics.NewHistogram(0),
		ReadOnlyLatency: metrics.NewHistogram(0),
	}
	txns, err := workload.Generate(opts.Workload)
	if err != nil {
		return res, err
	}
	n := opts.Workload.Sites
	res.Sites = n
	res.Submitted = len(txns)
	link := opts.Link
	if link == nil {
		link = netsim.DefaultLAN()
	}
	if opts.Drain <= 0 {
		opts.Drain = 30 * time.Second
	}

	cluster := sim.NewCluster(n, link, opts.Seed)
	// HARNESS_LOG=1 streams every engine's Logf to stderr with virtual
	// timestamps — the debugging view for partition/rejoin runs.
	if os.Getenv("HARNESS_LOG") != "" {
		cluster.LogWriter = os.Stderr
	}
	cfg := opts.Engine
	var rec *sgraph.Recorder
	if opts.Check {
		rec = sgraph.NewRecorder()
		cfg.Recorder = rec
	}
	engines := make([]core.Engine, n)
	if opts.TraceCap > 0 {
		res.Tracers = make([]*trace.Tracer, n)
	}
	for i := 0; i < n; i++ {
		rt := cluster.Runtime(message.SiteID(i))
		cfg := cfg
		if opts.WAL != nil {
			cfg.WAL = opts.WAL(message.SiteID(i))
		}
		if opts.Checkpoint != nil {
			cfg.Checkpoint = opts.Checkpoint(message.SiteID(i))
		}
		if opts.GroupWAL != nil {
			site := message.SiteID(i)
			cfg.GroupWAL = func(g message.GroupID) *storage.WAL { return opts.GroupWAL(site, g) }
		}
		if opts.GroupCheckpoint != nil {
			site := message.SiteID(i)
			cfg.GroupCheckpoint = func(g message.GroupID) checkpoint.Policy { return opts.GroupCheckpoint(site, g) }
		}
		if opts.TraceCap > 0 {
			cfg.Tracer = trace.New(message.SiteID(i), opts.TraceCap, rt.Now)
			res.Tracers[i] = cfg.Tracer
		}
		var e core.Engine
		switch opts.Protocol {
		case ProtoReliable:
			e = core.NewReliable(rt, cfg)
		case ProtoCausal:
			e = core.NewCausal(rt, cfg)
		case ProtoAtomic:
			if cfg.Shard != nil {
				se, err := core.NewSharded(rt, cfg)
				if err != nil {
					return res, err
				}
				e = se
			} else {
				e = core.NewAtomic(rt, cfg)
			}
		case ProtoBaseline:
			e = core.NewBaseline(rt, cfg)
		case ProtoQuorum:
			e = core.NewQuorum(rt, cfg)
		default:
			return res, fmt.Errorf("harness: unknown protocol %q", opts.Protocol)
		}
		engines[i] = e
		cluster.Bind(message.SiteID(i), e)
	}
	if opts.Engines != nil {
		*opts.Engines = engines
	}
	cluster.Start()
	for _, f := range opts.Faults {
		f := f
		cluster.Schedule(f.At, func() { cluster.Crash(f.Crash) })
	}
	for _, ev := range opts.NetEvents {
		ev := ev
		cluster.Schedule(ev.At, func() {
			if ev.Heal {
				cluster.Heal()
			} else {
				cluster.Partition(ev.Groups...)
			}
		})
	}
	wireChaos(cluster, engines, &opts)

	type outcomeRec struct {
		done     bool
		skipped  bool
		outcome  core.Outcome
		reason   core.AbortReason
		readOnly bool
		started  time.Duration
		finished time.Duration
	}
	outcomes := make([]outcomeRec, len(txns))
	remaining := len(txns)

	for i, wt := range txns {
		i, wt := i, wt
		cluster.Schedule(wt.At, func() {
			o := &outcomes[i]
			if cluster.Crashed(wt.Site) {
				o.done = true
				o.skipped = true
				remaining--
				return
			}
			e := engines[wt.Site]
			o.readOnly = wt.ReadOnly
			o.started = cluster.Now()
			tx := e.Begin(wt.ReadOnly)
			finish := func(out core.Outcome, reason core.AbortReason) {
				if o.done {
					return
				}
				o.done = true
				o.outcome = out
				o.reason = reason
				o.finished = cluster.Now()
				remaining--
			}
			var step func(ri int)
			step = func(ri int) {
				if ri < len(wt.Reads) {
					e.Read(tx, wt.Reads[ri], func(_ message.Value, err error) {
						if err != nil {
							e.Abort(tx)
							if out, reason := tx.Outcome(); out != 0 {
								finish(out, reason)
							} else {
								finish(core.Aborted, core.ReasonClient)
							}
							return
						}
						step(ri + 1)
					})
					return
				}
				for _, w := range wt.Writes {
					if err := e.Write(tx, w.Key, w.Value); err != nil {
						e.Abort(tx)
						if out, reason := tx.Outcome(); out != 0 {
							finish(out, reason)
						} else {
							finish(core.Aborted, core.ReasonClient)
						}
						return
					}
				}
				e.Commit(tx, finish)
			}
			step(0)
		})
	}

	// Drive the run: through the arrival window, then drain in slices
	// until every transaction resolves or the drain budget is spent.
	limit := opts.Workload.Window + opts.Drain
	if _, err := cluster.Run(opts.Workload.Window); err != nil {
		return res, err
	}
	for remaining > 0 && cluster.Now() < limit {
		next := cluster.Now() + 250*time.Millisecond
		if next > limit {
			next = limit
		}
		if _, err := cluster.Run(next); err != nil {
			return res, err
		}
	}

	// Collect.
	var lastFinish time.Duration
	for i := range outcomes {
		o := &outcomes[i]
		if !o.done {
			res.Unfinished++
			continue
		}
		if o.skipped {
			res.Skipped++
			continue
		}
		if o.finished > lastFinish {
			lastFinish = o.finished
		}
		switch {
		case o.outcome == core.Committed && o.readOnly:
			res.ReadOnlyCommitted++
			res.ReadOnlyLatency.Observe(o.finished - o.started)
		case o.outcome == core.Committed:
			res.Committed++
			res.UpdateLatency.Observe(o.finished - o.started)
			res.CommitTimes = append(res.CommitTimes, o.finished)
		default:
			res.Aborted++
			res.AbortsByReason[o.reason]++
		}
	}
	res.Net = cluster.Stats()
	res.Elapsed = cluster.Now()
	background := res.Net.ByPayload[message.KindCausalNull] +
		res.Net.ByKind[message.KindHeartbeat] +
		res.Net.ByKind[message.KindViewPropose] +
		res.Net.ByKind[message.KindViewAck] +
		res.Net.ByKind[message.KindViewInstall]
	backgroundBytes := res.Net.PayloadBytes[message.KindCausalNull] +
		res.Net.KindBytes[message.KindHeartbeat] +
		res.Net.KindBytes[message.KindViewPropose] +
		res.Net.KindBytes[message.KindViewAck] +
		res.Net.KindBytes[message.KindViewInstall]
	if res.Committed > 0 {
		res.MsgsPerCommit = float64(res.Net.Messages) / float64(res.Committed)
		res.BytesPerCommit = float64(res.Net.Bytes-backgroundBytes) / float64(res.Committed)
		res.ProtocolMsgsPerCommit = float64(res.Net.Messages-background) / float64(res.Committed)
	}
	if res.Elapsed > 0 {
		res.BackgroundMsgsPerSec = float64(background) / res.Elapsed.Seconds()
	}
	if n > 1 {
		res.LogicalBroadcasts = float64(res.Net.ByKind[message.KindBcast]) / float64(n-1)
	}
	if lastFinish > 0 {
		res.ThroughputPerSec = float64(res.Committed) / lastFinish.Seconds()
	}
	if rec != nil {
		res.CheckErr = rec.Check()
	}
	return res, nil
}
