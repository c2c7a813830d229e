// Package repro is a reproduction of Stanoi, Agrawal and El Abbadi, "Using
// Broadcast Primitives in Replicated Databases" (ICDCS 1998): a fully
// replicated transactional key-value database offering the paper's three
// replication protocols — reliable broadcast with explicit
// acknowledgements and decentralized two-phase commit, causal broadcast
// with implicit acknowledgements, and atomic broadcast with no
// acknowledgements at all — plus the classical point-to-point baseline.
//
// This package is the user-facing facade: it assembles a deterministic
// simulated cluster (virtual time, seeded randomness) and exposes a
// synchronous transaction API on top of the event-driven engines. The
// examples/ directory shows it in use; the internal packages expose the
// full event-driven machinery for embedding in other runtimes (see
// internal/livenet for the TCP deployment used by cmd/replicadb).
package repro

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sgraph"
	"repro/internal/sim"
)

// Protocol selects a replication protocol.
type Protocol string

// The four replication protocols.
const (
	// Reliable is protocol R: reliable broadcast, explicit per-write
	// acknowledgements, decentralized two-phase commit.
	Reliable Protocol = "reliable"
	// Causal is protocol C: causal broadcast with implicit
	// acknowledgements mined from vector clocks.
	Causal Protocol = "causal"
	// Atomic is protocol A: totally ordered commit requests, certification,
	// zero acknowledgements.
	Atomic Protocol = "atomic"
	// Baseline is the classical point-to-point read-one write-all protocol
	// with centralized two-phase commit and wound-wait locking.
	Baseline Protocol = "baseline"
	// Quorum is Gifford's majority-quorum replica control: reads consult a
	// majority (so Get, which peeks one local store, may observe a stale
	// minority replica — use a transaction for fresh reads), writes install
	// versioned values at a majority, and a minority of crashed sites is
	// tolerated with no failure detector at all.
	Quorum Protocol = "quorum"
)

// Options configures a simulated cluster.
type Options struct {
	// Sites is the number of replicas (default 3).
	Sites int
	// Protocol selects the replication protocol (default Causal).
	Protocol Protocol
	// Seed makes the run reproducible (default 1).
	Seed int64
	// LatencyMin/LatencyMax bound the simulated one-way network delay
	// (default 0.5–2ms, a LAN).
	LatencyMin, LatencyMax time.Duration
	// Heartbeat sets protocol C's null-broadcast interval; without it a
	// causal cluster with silent sites stalls commits, as §4 of the paper
	// warns (default 25ms; set negative to disable).
	Heartbeat time.Duration
	// Membership enables failure handling — the failure detector at its
	// default pace and majority views — required for Crash/Partition
	// experiments.
	Membership bool
	// SnapshotReadOnly lets read-only transactions in the lock-based
	// protocols read committed state without shared locks.
	SnapshotReadOnly bool
	// IsisOrdering selects the ISIS agreed-timestamp total order instead of
	// the fixed sequencer (protocol A).
	IsisOrdering bool
	// Verify records every execution footprint so Check can test one-copy
	// serializability after the run (opt-in; costs memory on long runs).
	Verify bool
}

func (o *Options) defaults() {
	if o.Sites <= 0 {
		o.Sites = 3
	}
	if o.Protocol == "" {
		o.Protocol = Causal
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LatencyMin <= 0 {
		o.LatencyMin = 500 * time.Microsecond
	}
	if o.LatencyMax <= o.LatencyMin {
		o.LatencyMax = o.LatencyMin + 1500*time.Microsecond
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 25 * time.Millisecond
	}
}

// Cluster is a simulated replicated database. It is not safe for concurrent
// use: all calls must come from one goroutine, and time only advances while
// a Submit/Advance call runs.
type Cluster struct {
	opts    Options
	sim     *sim.Cluster
	engines []core.Engine
	rec     *sgraph.Recorder
}

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	opts.defaults()
	cfg := core.Config{SnapshotReadOnly: opts.SnapshotReadOnly}
	if opts.Membership {
		cfg.FailureInterval = failure.DefaultInterval
	}
	if opts.Protocol == Causal && opts.Heartbeat > 0 {
		cfg.CausalHeartbeat = opts.Heartbeat
	}
	if opts.IsisOrdering {
		cfg.AtomicMode = broadcast.AtomicIsis
	}
	c := &Cluster{opts: opts}
	if opts.Verify {
		c.rec = sgraph.NewRecorder()
		cfg.Recorder = c.rec
	}
	c.sim = sim.NewCluster(opts.Sites, netsim.Uniform{Min: opts.LatencyMin, Max: opts.LatencyMax}, opts.Seed)
	for i := 0; i < opts.Sites; i++ {
		rt := c.sim.Runtime(message.SiteID(i))
		var e core.Engine
		switch opts.Protocol {
		case Reliable:
			e = core.NewReliable(rt, cfg)
		case Causal:
			e = core.NewCausal(rt, cfg)
		case Atomic:
			e = core.NewAtomic(rt, cfg)
		case Baseline:
			e = core.NewBaseline(rt, cfg)
		case Quorum:
			e = core.NewQuorum(rt, cfg)
		default:
			return nil, fmt.Errorf("repro: unknown protocol %q", opts.Protocol)
		}
		c.engines = append(c.engines, e)
		c.sim.Bind(message.SiteID(i), e)
	}
	c.sim.Start()
	if _, err := c.sim.Run(c.sim.Now() + 10*time.Millisecond); err != nil {
		return nil, err
	}
	return c, nil
}

// Txn is a declarative transaction: reads execute first (the paper's
// execution model), then writes, then commit.
type Txn struct {
	readOnly bool
	reads    []string
	writes   []message.KV
}

// NewTxn starts an update transaction specification.
func NewTxn() *Txn { return &Txn{} }

// ReadOnlyTxn starts a read-only transaction specification; read-only
// transactions never broadcast and are never aborted by the broadcast
// protocols.
func ReadOnlyTxn() *Txn { return &Txn{readOnly: true} }

// Read appends a read of key.
func (t *Txn) Read(key string) *Txn {
	t.reads = append(t.reads, key)
	return t
}

// Write appends a write. Panics on a read-only specification — that is a
// programming error, not a runtime condition.
func (t *Txn) Write(key string, value []byte) *Txn {
	if t.readOnly {
		panic("repro: Write on read-only transaction")
	}
	t.writes = append(t.writes, message.KV{Key: message.Key(key), Value: value})
	return t
}

// Result reports a finished transaction.
type Result struct {
	// Committed is false if the transaction aborted.
	Committed bool
	// Reason explains an abort ("write-conflict", "certification", ...).
	Reason string
	// Values holds the read results (nil value = key never written).
	Values map[string][]byte
	// Latency is the virtual time from submission to outcome.
	Latency time.Duration
}

// ErrTimeout is returned when a transaction does not finish within the
// simulated-time budget (e.g. protocol C stalling without heartbeats).
var ErrTimeout = errors.New("repro: transaction did not finish in time")

// Submit runs one transaction at the given site, advancing simulated time
// until it finishes (default budget 30s of virtual time).
func (c *Cluster) Submit(site int, t *Txn) (Result, error) {
	results, err := c.SubmitConcurrent([]Submission{{Site: site, Txn: t}})
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// Submission pairs a transaction with its home site and (optionally) a
// virtual-time offset at which it enters the system.
type Submission struct {
	Site  int
	After time.Duration
	Txn   *Txn
}

// SubmitConcurrent schedules several transactions and advances time until
// all finish. Transactions with the same After race each other — this is
// how the examples provoke conflicts deterministically.
func (c *Cluster) SubmitConcurrent(subs []Submission) ([]Result, error) {
	results := make([]Result, len(subs))
	done := make([]bool, len(subs))
	remaining := len(subs)
	for i, sub := range subs {
		i, sub := i, sub
		if sub.Site < 0 || sub.Site >= len(c.engines) {
			return nil, fmt.Errorf("repro: site %d out of range", sub.Site)
		}
		c.sim.Schedule(sub.After, func() {
			e := c.engines[sub.Site]
			res := &results[i]
			res.Values = make(map[string][]byte, len(sub.Txn.reads))
			start := c.sim.Now()
			tx := e.Begin(sub.Txn.readOnly)
			finish := func(o core.Outcome, r core.AbortReason) {
				if done[i] {
					return
				}
				done[i] = true
				res.Committed = o == core.Committed
				if !res.Committed {
					res.Reason = r.String()
				}
				res.Latency = c.sim.Now() - start
				remaining--
			}
			var step func(ri int)
			step = func(ri int) {
				if ri < len(sub.Txn.reads) {
					key := sub.Txn.reads[ri]
					e.Read(tx, message.Key(key), func(v message.Value, err error) {
						if err != nil {
							e.Abort(tx)
							finish(core.Aborted, core.ReasonClient)
							return
						}
						res.Values[key] = v
						step(ri + 1)
					})
					return
				}
				for _, w := range sub.Txn.writes {
					if err := e.Write(tx, w.Key, w.Value); err != nil {
						e.Abort(tx)
						if o, r := tx.Outcome(); o != 0 {
							finish(o, r)
						} else if errors.Is(err, core.ErrNotPrimary) {
							finish(core.Aborted, core.ReasonNotPrimary)
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
	budget := c.sim.Now() + 30*time.Second
	for remaining > 0 && c.sim.Now() < budget {
		if _, err := c.sim.Run(c.sim.Now() + 100*time.Millisecond); err != nil {
			return results, err
		}
	}
	if remaining > 0 {
		return results, fmt.Errorf("%w: %d of %d pending", ErrTimeout, remaining, len(subs))
	}
	return results, nil
}

// Get returns the latest committed value of key at the given site without
// starting a transaction (a debugging peek, not a serializable read).
func (c *Cluster) Get(site int, key string) ([]byte, bool) {
	rec, ok := c.engines[site].Store().Get(message.Key(key))
	return rec.Value, ok
}

// Advance runs the simulation for d of virtual time with no new work —
// letting heartbeats fire, failure detectors time out, and view changes
// settle.
func (c *Cluster) Advance(d time.Duration) error {
	_, err := c.sim.Run(c.sim.Now() + d)
	return err
}

// Now returns the cluster's virtual time.
func (c *Cluster) Now() time.Duration { return c.sim.Now() }

// Crash stops a site (requires Options.Membership for the survivors to
// reconfigure around it).
func (c *Cluster) Crash(site int) { c.sim.Crash(message.SiteID(site)) }

// Partition splits the network into groups; sites in different groups
// cannot exchange messages until Heal.
func (c *Cluster) Partition(groups ...[]int) {
	conv := make([][]message.SiteID, len(groups))
	for i, g := range groups {
		for _, s := range g {
			conv[i] = append(conv[i], message.SiteID(s))
		}
	}
	c.sim.Partition(conv...)
}

// Heal removes any partition.
func (c *Cluster) Heal() { c.sim.Heal() }

// Check verifies the execution so far is one-copy serializable and
// replica-consistent (requires Options.Verify).
func (c *Cluster) Check() error {
	if c.rec == nil {
		return errors.New("repro: cluster built without Verify")
	}
	return c.rec.Check()
}

// Stats summarizes one site's engine counters.
type Stats struct {
	Begun             int64
	Committed         int64
	ReadOnlyCommitted int64
	Aborted           int64
	AbortsByReason    map[string]int64
	MeanCommitLatency time.Duration
}

// SiteStats returns the counters of one site's engine.
func (c *Cluster) SiteStats(site int) Stats {
	st := c.engines[site].Stats()
	out := Stats{
		Begun:             st.Begun,
		Committed:         st.Committed,
		ReadOnlyCommitted: st.ReadOnlyCommitted,
		Aborted:           st.Aborted,
		AbortsByReason:    make(map[string]int64, len(st.AbortsByReason)),
		MeanCommitLatency: st.CommitLatency.Mean(),
	}
	for r, n := range st.AbortsByReason {
		out.AbortsByReason[r.String()] = n
	}
	return out
}

// NetworkStats summarizes cluster-wide traffic.
type NetworkStats struct {
	Messages int64
	Bytes    int64
	Dropped  int64
}

// Network returns the traffic counters accumulated so far.
func (c *Cluster) Network() NetworkStats {
	st := c.sim.Stats()
	return NetworkStats{Messages: st.Messages, Bytes: st.Bytes, Dropped: st.Dropped}
}

// Sites returns the cluster size.
func (c *Cluster) Sites() int { return len(c.engines) }

// SubmitWithRetry runs the transaction like Submit, but retries up to
// maxRetries times when it aborts for a transient reason (write conflicts,
// certification failures, wounds) — re-reading on each attempt, which is
// how applications are expected to use abort-based replication protocols.
// Reads in the returned Result are from the final attempt.
func (c *Cluster) SubmitWithRetry(site int, t *Txn, maxRetries int) (Result, int, error) {
	var res Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = c.Submit(site, t)
		if err != nil || res.Committed || attempt >= maxRetries {
			return res, attempt, err
		}
		switch res.Reason {
		case "write-conflict", "certification", "wounded":
			// transient: retry
		default:
			return res, attempt, err
		}
	}
}
