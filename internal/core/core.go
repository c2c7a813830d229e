// Package core implements the paper's three broadcast-based replication
// protocols and the classical point-to-point baseline they are measured
// against:
//
//   - ReliableEngine (protocol R): reliable broadcast of write operations
//     with explicit per-operation acknowledgements and a decentralized
//     two-phase commit in which every site broadcasts its vote,
//   - CausalEngine (protocol C): causal broadcast with implicit positive
//     acknowledgements mined from exposed vector clocks and explicit
//     broadcast negative acknowledgements, replacing the vote round with a
//     single commit-decision broadcast,
//   - AtomicEngine (protocol A): atomic broadcast of certification
//     requests; all sites apply the same deterministic decision rule to the
//     same total order, eliminating acknowledgements entirely,
//   - BaselineEngine: read-one write-all over unicasts with per-operation
//     acknowledgements, wound-wait deadlock avoidance, and centralized
//     two-phase commit.
//
// All engines present the same asynchronous client API (Begin / Read /
// Write / Commit with callbacks), enforce the paper's execution model
// (strict two-phase locking locally, all reads before any write, read-one
// write-all within the current majority view), and guarantee one-copy
// serializable executions — verified in the test suite with a multiversion
// serialization-graph checker.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/broadcast"
	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/env"
	"repro/internal/failure"
	"repro/internal/lockmgr"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/sgraph"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Outcome is a transaction's final state.
type Outcome int

// Transaction outcomes.
const (
	Committed Outcome = iota + 1
	Aborted
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// AbortReason explains why a transaction aborted.
type AbortReason int

// Abort reasons across all engines.
const (
	ReasonNone AbortReason = iota
	// ReasonWriteConflict: a replicated write hit a lock held by another
	// uncommitted transaction (the never-wait rule's negative ack).
	ReasonWriteConflict
	// ReasonCertification: protocol A's version check failed.
	ReasonCertification
	// ReasonWounded: the baseline's wound-wait policy killed the
	// transaction.
	ReasonWounded
	// ReasonNotPrimary: the site is not in a primary-partition view.
	ReasonNotPrimary
	// ReasonViewChange: a membership change invalidated the commit.
	ReasonViewChange
	// ReasonStorage: the home site's log could not make the decided commit
	// durable (its install was rejected or its batch's fsync failed), so
	// the client must not hear "committed".
	ReasonStorage
	// ReasonClient: the client called Abort.
	ReasonClient
)

// String implements fmt.Stringer.
func (r AbortReason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonWriteConflict:
		return "write-conflict"
	case ReasonCertification:
		return "certification"
	case ReasonWounded:
		return "wounded"
	case ReasonNotPrimary:
		return "not-primary"
	case ReasonViewChange:
		return "view-change"
	case ReasonStorage:
		return "storage"
	case ReasonClient:
		return "client"
	default:
		return fmt.Sprintf("AbortReason(%d)", int(r))
	}
}

// Client-visible errors.
var (
	// ErrTxnDone is returned for operations on a finished transaction.
	ErrTxnDone = errors.New("core: transaction already finished")
	// ErrReadOnly is returned when a read-only transaction writes.
	ErrReadOnly = errors.New("core: write in read-only transaction")
	// ErrReadAfterWrite enforces the paper's execution model: a transaction
	// performs all reads before its first write. The deadlock-prevention
	// guarantee depends on this discipline.
	ErrReadAfterWrite = errors.New("core: read after write violates the reads-first model")
	// ErrCommitPending is returned for operations after Commit was called.
	ErrCommitPending = errors.New("core: commit already requested")
	// ErrNotPrimary is returned when the site's view lacks a majority.
	ErrNotPrimary = errors.New("core: site is not in a primary-partition view")
)

// Config parameterizes an engine.
type Config struct {
	// Recorder, when set, collects commit footprints and apply orders for
	// the 1SR checker.
	Recorder *sgraph.Recorder
	// WAL, when set, logs committed writes at this site.
	WAL *storage.WAL
	// InitialStore seeds the engine with recovered state (for example from
	// checkpoint.Recover after a restart) instead of an empty database. The
	// per-site commit index resumes from the store's applied index.
	InitialStore *storage.Store
	// GroupCommit batches WAL fsyncs in the shared commit pipeline
	// (internal/commitpipe): with MaxBatch > 1 (on; the magnitude means
	// nothing), a WAL configured and a runtime that offers Offload,
	// commits that arrive during one fsync share the next and their
	// client acknowledgements wait for it. The zero value preserves
	// per-record durability.
	GroupCommit commitpipe.Policy
	// Relay enables eager broadcast relaying.
	Relay bool
	// AtomicMode selects the total-order broadcast implementation
	// (protocol A only). Defaults to the fixed sequencer.
	AtomicMode broadcast.AtomicMode
	// AtomicBatchWindow and AtomicBatchMsgs tune the batching orderer
	// (AtomicMode == broadcast.AtomicBatch): how long the leader holds an
	// open batch and the message budget that seals it early. Zero values
	// take the broadcast package defaults.
	AtomicBatchWindow time.Duration
	AtomicBatchMsgs   int
	// CausalWrites selects protocol A's paper arm: each write is
	// disseminated by causal broadcast as it is staged, and certification
	// waits for them behind the ordered commit request. The zero value
	// ships the cheaper path, where the write set rides inside the commit
	// request: 2(n-1) messages per update commit instead of (w+2)(n-1).
	// The experiments set it to keep the paper's analytic counts.
	CausalWrites bool
	// BatchWrites defers write dissemination to commit time for protocols
	// R and C: the whole write set travels in one WriteBatch broadcast that
	// receivers lock all-or-nothing. Fewer messages, no per-operation
	// pipelining.
	BatchWrites bool
	// SnapshotReadOnly lets read-only transactions in the lock-based
	// engines (R, C, baseline) read the latest committed versions without
	// shared locks. Their reads then never block behind writers and — more
	// importantly — never trigger the never-wait rule's negative
	// acknowledgements against writers. Update transactions keep locking
	// reads (required for one-copy serializability). Each read-only
	// transaction still observes its site's committed prefix, which is a
	// linear extension of the global conflict order, so 1SR is preserved —
	// the E12 ablation measures the abort-rate effect and the test suite
	// re-verifies serializability.
	SnapshotReadOnly bool
	// CausalHeartbeat is protocol C's null-broadcast interval: a site
	// silent for this long broadcasts a CausalNull so peers' implicit
	// acknowledgements keep flowing. Zero disables heartbeats (the paper's
	// noted stall risk).
	CausalHeartbeat time.Duration
	// FailureInterval > 0 turns failure handling on: a heartbeat failure
	// detector at this pace (internal/failure), whose suspicions R, C, A
	// and the baseline turn into majority views (internal/membership) and
	// the sharded engine into cross-shard coordinator failover: prepares
	// orphaned by a suspected coordinator are terminated by a successor.
	// Zero runs without failure handling: the full static cluster is
	// always the view. The quorum engine needs none and ignores it.
	// FailureTimeout is the silence before a peer is suspected (0 = four
	// intervals).
	FailureInterval time.Duration
	FailureTimeout  time.Duration
	// Tracer, when set, records per-transaction phase spans across the
	// engine, its broadcast stack, and its lock table (internal/trace).
	// Timestamps come from the runtime's clock.
	Tracer *trace.Tracer
	// Checkpoint enables the background checkpointer (internal/checkpoint):
	// periodic durable snapshots of the store + broadcast-stack frontiers
	// into Checkpoint.Dir, with truncation of fully-checkpointed WAL
	// segments. The zero policy disables it. Checkpoint.Dir should be the
	// WAL's segment directory.
	Checkpoint checkpoint.Policy
	// InitialStack seeds a restarted engine's broadcast-stack frontiers
	// from a recovered checkpoint (checkpoint.RecoverInfo.Stack) so its
	// send sequence numbers and delivery expectations resume instead of
	// restarting from zero. Ignored by engines without a stack.
	InitialStack *message.StackSync
	// HistoryRetention overrides the broadcast stack's retransmission
	// history cap (0 keeps the stack default). Experiments shrink it to
	// force rejoins onto the state-transfer path.
	HistoryRetention int
	// FullResync makes a resynchronizing atomic engine request the full
	// state instead of a delta above its applied index — the ablation arm
	// of the O(delta) catch-up experiment.
	FullResync bool
	// GapProbeInterval overrides the atomic engine's ordered-stream gap
	// detector pace (0 keeps the 200ms default). Rejoin experiments tighten
	// it so catch-up latency is small against their arrival windows.
	GapProbeInterval time.Duration
	// Shard enables partial replication (protocol A only): the keyspace is
	// split across replication groups by the consistent-hash ring built
	// from this config, each group running its own broadcast/ordering
	// instance over its member sites. Nil keeps the default fully
	// replicated engines; the sharded engine is selected when set.
	Shard *shard.Config
	// GroupWAL supplies the per-group write-ahead log under partial
	// replication (each group's commits log and checkpoint independently).
	// Nil runs all groups without durability. Config.WAL is ignored by the
	// sharded engine.
	GroupWAL func(message.GroupID) *storage.WAL
	// GroupCheckpoint supplies the per-group checkpoint policy under
	// partial replication (zero policy disables that group's checkpointer).
	GroupCheckpoint func(message.GroupID) checkpoint.Policy
	// GroupInitialStore and GroupInitialStack seed a restarted sharded
	// engine's per-group state from recovered checkpoints, the per-group
	// analogues of InitialStore/InitialStack. A nil func (or nil return for
	// a group) starts that group empty.
	GroupInitialStore func(message.GroupID) *storage.Store
	GroupInitialStack func(message.GroupID) *message.StackSync
	// GroupInitialShard seeds a restarted sharded engine's cross-shard
	// certification state (certified-undecided prepares, remembered
	// decisions, fences) from a recovered checkpoint, so orphaned prepares
	// survive restarts and termination answers stay deterministic.
	GroupInitialShard func(message.GroupID) *message.ShardRecovery
}

// Local aliases keep the engines' lock-table calls compact.
const (
	lockShared    = lockmgr.Shared
	lockExclusive = lockmgr.Exclusive
	lockGranted   = lockmgr.Granted
)

// txState tracks a local transaction's lifecycle.
type txState int

const (
	txActive txState = iota + 1
	txCommitWait
	txDone
)

// Tx is a client transaction handle. It is created by an engine's Begin and
// must only be passed back to that engine.
type Tx struct {
	ID       message.TxnID
	ReadOnly bool

	state    txState
	beganAt  time.Duration
	wrote    bool
	outcome  Outcome
	reason   AbortReason
	commitCB func(Outcome, AbortReason)

	reads  []sgraph.ReadObs
	writes []message.KV

	// readWaits holds cancellation hooks for reads queued on the local
	// lock table, fired with ErrTxnDone if the transaction dies first (a
	// wound, a view change) so the client's continuation always runs.
	readWaits []func()

	// Protocol R and baseline write pipeline.
	nextOp     int              // next unsent write (index into writes)
	ackWait    []message.SiteID // sites whose ack for the in-flight op is pending; reused across ops
	opInFlight bool

	// Tracing anchors: when the last write round started and when commit
	// was requested, for ack-wait spans.
	opSentAt time.Duration
	commitAt time.Duration

	// Protocol C.
	lastCSeq uint64 // causal seq of this txn's last write broadcast

	// Protocol A.
	snapshot uint64
	readVers []message.KeyVer

	// Sharded engine: per-group read snapshots (group-local certification
	// indices captured at Begin) and per-group certified read sets.
	gsnap  map[message.GroupID]uint64
	greads map[message.GroupID][]message.KeyVer
}

// Done reports whether the transaction has finished.
func (t *Tx) Done() bool { return t.state == txDone }

// Outcome returns the final outcome (valid once Done).
func (t *Tx) Outcome() (Outcome, AbortReason) { return t.outcome, t.reason }

// Stats aggregates an engine's lifetime counters.
type Stats struct {
	Begun             int64
	Committed         int64
	ReadOnlyCommitted int64
	Aborted           int64
	AbortsByReason    map[AbortReason]int64
	CommitLatency     *metrics.Histogram // update transactions only
	Applied           int64              // remote transactions applied at this site

	// State-transfer donor counters: chunks, wire bytes, and snapshot
	// entries shipped to resynchronizing peers (atomic engine).
	StateChunksSent  int64
	StateBytesSent   int64
	StateEntriesSent int64
	// CheckpointLatency observes the wall time of each durable checkpoint
	// (barrier through WAL truncation).
	CheckpointLatency *metrics.Histogram
}

func newStats() Stats {
	return Stats{
		AbortsByReason:    make(map[AbortReason]int64),
		CommitLatency:     metrics.NewHistogram(0),
		CheckpointLatency: metrics.NewHistogram(0),
	}
}

// Engine is the common interface of all four replication engines.
type Engine interface {
	env.Node
	// Begin opens a transaction homed at this site.
	Begin(readOnly bool) *Tx
	// Read asynchronously reads key; cb receives the value (nil if the key
	// was never written) or an error. Reads must precede writes.
	Read(tx *Tx, key message.Key, cb func(message.Value, error))
	// Write buffers/disseminates one write. It returns an error if the
	// transaction cannot accept writes (finished, read-only, commit
	// pending).
	Write(tx *Tx, key message.Key, val message.Value) error
	// Commit requests commitment; cb fires exactly once with the outcome.
	Commit(tx *Tx, cb func(Outcome, AbortReason))
	// Abort unilaterally aborts a transaction the client no longer wants.
	Abort(tx *Tx)
	// Stats returns a snapshot of the engine's counters.
	Stats() *Stats
	// Store exposes the site's local database (tests and tools).
	Store() *storage.Store
	// Pipeline exposes the site's commit pipeline: its group-commit
	// metrics, and Flush for shutdown.
	Pipeline() *commitpipe.Pipeline
	// Checkpointer exposes the background checkpointer (nil when
	// Config.Checkpoint is disabled).
	Checkpointer() *checkpoint.Checkpointer
	// Suspects returns the peers the failure detector suspects (nil when
	// the site runs none).
	Suspects() []message.SiteID
}

// base carries the state and helpers shared by every engine.
type base struct {
	rt    env.Runtime
	cfg   Config
	name  string
	locks *lockmgr.Manager
	store *storage.Store
	det   *failure.Detector
	mem   *membership.Manager

	nextSeq uint64
	local   map[message.TxnID]*Tx
	pipe    *commitpipe.Pipeline
	stats   Stats
	tr      *trace.Tracer
	ckpt    *checkpoint.Checkpointer
}

func newBase(rt env.Runtime, cfg Config, name string) *base {
	st := cfg.InitialStore
	if st == nil {
		st = storage.New(cfg.WAL)
	}
	b := &base{
		rt:    rt,
		cfg:   cfg,
		name:  name,
		locks: lockmgr.New(),
		store: st,
		local: make(map[message.TxnID]*Tx),
		stats: newStats(),
		tr:    cfg.Tracer,
	}
	b.pipe = b.newPipeline(st)
	if cfg.Tracer != nil {
		b.locks.Tracer = cfg.Tracer
		b.locks.Now = rt.Now
	}
	return b
}

// offloader is the optional capability of a runtime with a disk to wait
// for: livenet.Host runs work on its syncer goroutine and done back on the
// event loop; the simulator runs work at once and done a fixed virtual sync
// latency later. A runtime without it gets no group commit.
type offloader interface {
	Offload(work, done func()) bool
}

// newPipeline builds a commit pipeline over st: the site's own, or one
// replication group's under partial replication. All of a site's pipelines
// share the runtime's one syncer.
func (b *base) newPipeline(st *storage.Store) *commitpipe.Pipeline {
	cfg := commitpipe.Config{
		Site:     b.rt.ID(),
		Store:    st,
		Policy:   b.cfg.GroupCommit,
		Now:      b.rt.Now,
		Recorder: b.cfg.Recorder,
		Tracer:   b.cfg.Tracer,
		OnApply:  func(message.TxnID) { b.stats.Applied++ },
		Logf:     b.rt.Logf,
	}
	if o, ok := b.rt.(offloader); ok {
		cfg.Offload = o.Offload
	}
	return commitpipe.New(cfg)
}

// newCheckpointer wires a background checkpointer over st and its pipeline
// (nil when pol is disabled). fill adds what the owner checkpoints beside
// the store: broadcast-stack frontiers, cross-shard certification state.
// All hooks run on the event loop.
func (b *base) newCheckpointer(pol checkpoint.Policy, st *storage.Store, pipe *commitpipe.Pipeline, fill func(*checkpoint.Checkpoint)) *checkpoint.Checkpointer {
	src := checkpoint.Source{
		Capture: func() *checkpoint.Checkpoint {
			ck := &checkpoint.Checkpoint{Applied: st.Applied(), Entries: st.Snapshot()}
			fill(ck)
			return ck
		},
		Barrier: pipe.Barrier,
		Observe: func(start time.Duration, bytes int64, applied uint64, truncated int) {
			b.stats.CheckpointLatency.Observe(b.rt.Now() - start)
			b.tr.Interval(message.TxnID{}, trace.KindCheckpoint, start, applied, b.rt.ID(), bytes)
		},
	}
	if w := st.WAL(); w != nil {
		src.WALBytes = w.AppendedBytes
	}
	return checkpoint.NewCheckpointer(pol, src, checkpoint.Runtime{
		SetTimer: func(d time.Duration, fn func()) { b.rt.SetTimer(d, fn) },
		Now:      b.rt.Now,
		Logf:     b.rt.Logf,
	})
}

// initCheckpoint wires the site checkpointer of an engine that is not a
// replication group. exportStack captures its broadcast-stack frontiers
// alongside the store (nil for the stackless baseline/quorum engines).
func (b *base) initCheckpoint(exportStack func() *message.StackSync) {
	b.ckpt = b.newCheckpointer(b.cfg.Checkpoint, b.store, b.pipe, func(ck *checkpoint.Checkpoint) {
		if exportStack != nil {
			ck.Stack = exportStack()
		}
	})
}

// Checkpointer exposes the background checkpointer (nil when disabled) for
// STATS reporting and tests.
func (b *base) Checkpointer() *checkpoint.Checkpointer { return b.ckpt }

// initDetector builds the site's failure detector when
// Config.FailureInterval > 0 and reports whether it did. onSuspect and
// onAlive are the engine's reaction to the detector's verdicts.
func (b *base) initDetector(onSuspect, onAlive func(message.SiteID)) bool {
	if b.cfg.FailureInterval <= 0 {
		return false
	}
	b.det = failure.New(b.rt, failure.Config{
		Interval:  b.cfg.FailureInterval,
		Timeout:   b.cfg.FailureTimeout,
		OnSuspect: onSuspect,
		OnAlive:   onAlive,
	})
	return true
}

// initViews layers the majority-view manager on the failure detector, the
// reaction of the fully replicated engines. onViewChange runs after each
// installed view, with the manager available.
func (b *base) initViews(onViewChange func(old, installed message.View)) {
	reconsider := func(message.SiteID) { b.mem.Reconsider() }
	if b.initDetector(reconsider, reconsider) {
		b.mem = membership.New(b.rt, membership.Config{
			Detector:     b.det,
			OnViewChange: onViewChange,
		})
	}
}

// start starts failure handling and the checkpointer, in the order seeded
// runs depend on: views, detector, checkpointer. Each is optional.
func (b *base) start() {
	if b.mem != nil {
		b.mem.Start()
	}
	if b.det != nil {
		b.det.Start()
	}
	b.ckpt.Start()
}

// receiveFailure is every engine's Receive prelude: any message is
// evidence that from is alive, and heartbeats and view-change traffic end
// here. It reports whether m was failure-handling traffic.
func (b *base) receiveFailure(from message.SiteID, m message.Message) bool {
	if b.det != nil {
		b.det.Observe(from)
	}
	switch {
	case m.Kind() == message.KindHeartbeat:
		return true
	case membership.Handles(m):
		if b.mem != nil {
			b.mem.Handle(from, m)
		}
		return true
	}
	return false
}

// members returns the current view membership (all peers without failure
// handling).
func (b *base) members() []message.SiteID {
	if b.mem != nil {
		return b.mem.Members()
	}
	return b.rt.Peers()
}

// inPrimary reports whether this site may serve transactions.
func (b *base) inPrimary() bool {
	if b.mem != nil {
		return b.mem.InPrimary()
	}
	return true
}

// Suspects returns the peers the failure detector currently suspects, in
// ascending order: nil when the site runs no detector.
func (b *base) Suspects() []message.SiteID {
	if b.det == nil {
		return nil
	}
	return b.det.Suspected()
}

// sortedTxns returns txs' transactions in id order, so a sweep over them
// runs identically in every seeded run.
func sortedTxns(txs map[message.TxnID]*Tx) []*Tx {
	out := make([]*Tx, 0, len(txs))
	for _, tx := range txs {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// begin creates a local transaction handle.
func (b *base) begin(readOnly bool) *Tx {
	b.nextSeq++
	tx := &Tx{
		ID:       message.TxnID{Site: b.rt.ID(), Seq: b.nextSeq},
		ReadOnly: readOnly,
		state:    txActive,
		beganAt:  b.rt.Now(),
	}
	b.local[tx.ID] = tx
	b.stats.Begun++
	ro := int64(0)
	if readOnly {
		ro = 1
	}
	b.tr.Point(tx.ID, trace.KindBegin, 0, b.rt.ID(), ro)
	return tx
}

// finish completes a local transaction exactly once: releases its local
// locks, records stats, and fires the commit callback if one is pending.
func (b *base) finish(tx *Tx, o Outcome, reason AbortReason) {
	if tx.state == txDone {
		return
	}
	tx.state = txDone
	tx.outcome = o
	tx.reason = reason
	delete(b.local, tx.ID)
	// Release any read continuations still queued on the lock table; the
	// lock manager dropped their waiters, so they would otherwise never
	// fire.
	for _, cancel := range tx.readWaits {
		cancel()
	}
	tx.readWaits = nil
	switch o {
	case Committed:
		if tx.ReadOnly {
			b.stats.ReadOnlyCommitted++
		} else {
			b.stats.Committed++
			b.stats.CommitLatency.Observe(b.rt.Now() - tx.beganAt)
		}
		if b.cfg.Recorder != nil {
			b.cfg.Recorder.RecordCommit(sgraph.TxnRec{
				ID:       tx.ID,
				Home:     b.rt.ID(),
				ReadOnly: tx.ReadOnly,
				Reads:    tx.reads,
				Writes:   writeKeys(tx.writes),
			})
		}
	case Aborted:
		b.stats.Aborted++
		b.stats.AbortsByReason[reason]++
	}
	committed := int64(0)
	if o == Committed {
		committed = 1
	}
	b.tr.Interval(tx.ID, trace.KindOutcome, tx.beganAt, uint64(reason), b.rt.ID(), committed)
	if cb := tx.commitCB; cb != nil {
		tx.commitCB = nil
		cb(o, reason)
	}
}

// finishCertified completes a local transaction with its durable
// certification outcome.
func (b *base) finishCertified(tx *Tx, committed bool) {
	if committed {
		b.finish(tx, Committed, ReasonNone)
	} else {
		b.finish(tx, Aborted, ReasonCertification)
	}
}

func writeKeys(writes []message.KV) []message.Key {
	out := make([]message.Key, len(writes))
	for i, w := range writes {
		out[i] = w.Key
	}
	return out
}

// lockingRead implements the shared-lock read path used by the lock-based
// engines (R, C, baseline): acquire a local S lock (waiting behind
// exclusive holders), then read the latest committed version. With
// Config.SnapshotReadOnly, read-only transactions skip the lock entirely.
//
// The lock is first tried without waiting: a refused no-wait request
// changes nothing in the table, so a granted read — the common case — runs
// at once and builds no continuation closures. Only a conflicting read
// queues, with the same request it would have made directly.
func (b *base) lockingRead(tx *Tx, key message.Key, cb func(message.Value, error)) {
	if err := b.readPrecheck(tx); err != nil {
		cb(nil, err)
		return
	}
	if (b.cfg.SnapshotReadOnly && tx.ReadOnly) || b.locks.Acquire(tx.ID, key, lockShared, false, nil) == lockGranted {
		cb(b.readLatest(tx, key), nil)
		return
	}
	fired := false
	fire := func(val message.Value, err error) {
		if fired {
			return
		}
		fired = true
		cb(val, err)
	}
	finishRead := func() {
		if tx.state == txDone {
			fire(nil, ErrTxnDone)
			return
		}
		fire(b.readLatest(tx, key), nil)
	}
	switch b.locks.Acquire(tx.ID, key, lockShared, true, finishRead) {
	case lockmgr.Queued:
		// finishRead fires on grant; the cancellation hook covers an abort
		// while queued.
		tx.readWaits = append(tx.readWaits, func() { fire(nil, ErrTxnDone) })
	default:
		// The no-wait attempt just conflicted and changed nothing, so a
		// waiting request can only queue; defensive.
		fire(nil, fmt.Errorf("core: unexpected lock result on %q", key))
	}
}

// readLatest reads key's latest committed version for tx and records the
// observation for the serializability checker. A key never written reads
// as nil from the zero writer.
func (b *base) readLatest(tx *Tx, key message.Key) message.Value {
	rec, _ := b.store.Get(key)
	tx.reads = append(tx.reads, sgraph.ReadObs{Key: key, From: rec.Writer})
	return rec.Value
}

// snapshotRead serves one protocol A read from st at snapshot index at: no
// locks, never blocking. It records the observation and returns the value
// with the base version certification will check. A snapshot below the GC
// horizon surfaces storage.ErrVersionGone; the client aborts and restarts
// on a fresh one.
func snapshotRead(tx *Tx, st *storage.Store, key message.Key, at uint64) (message.Value, message.KeyVer, error) {
	rec, ok, err := st.GetAt(key, at)
	if err != nil {
		return nil, message.KeyVer{}, err
	}
	var from message.TxnID
	var val message.Value
	ver := uint64(0)
	if ok {
		from, val, ver = rec.Writer, rec.Value, rec.Index
	}
	tx.reads = append(tx.reads, sgraph.ReadObs{Key: key, From: from})
	return val, message.KeyVer{Key: key, Ver: ver}, nil
}

func (b *base) readPrecheck(tx *Tx) error {
	switch {
	case tx.state == txDone:
		return ErrTxnDone
	case tx.state == txCommitWait:
		return ErrCommitPending
	case tx.wrote:
		return ErrReadAfterWrite
	case !b.inPrimary():
		return ErrNotPrimary
	default:
		return nil
	}
}

// bufferWrite validates and appends a write to the transaction. Repeated
// writes to one key stay separate operations; message.DedupWrites
// collapses them where a write set is needed.
func (b *base) bufferWrite(tx *Tx, key message.Key, val message.Value) error {
	switch {
	case tx.state == txDone:
		return ErrTxnDone
	case tx.state == txCommitWait:
		return ErrCommitPending
	case tx.ReadOnly:
		return ErrReadOnly
	case !b.inPrimary():
		return ErrNotPrimary
	}
	tx.wrote = true
	tx.writes = append(tx.writes, message.KV{Key: key, Value: val})
	return nil
}

// dropSite removes s from a pending-acknowledgement set, if present.
func dropSite(pending []message.SiteID, s message.SiteID) []message.SiteID {
	if i := slices.Index(pending, s); i >= 0 {
		return slices.Delete(pending, i, i+1)
	}
	return pending
}

// replica is the record a lock-based engine (protocols R, C, and the ROWA
// baseline) keeps at every site for one update transaction: the writes
// staged under its exclusive locks, and the pipeline entry that installs
// them, kept here so a commit allocates no entry slice.
type replica struct {
	id     message.TxnID
	staged []message.KV
	doomed bool
	entry  [1]commitpipe.Entry
}

// commitPipelined feeds a decided lock-based commit through the shared
// pipeline: install r's staged writes at the next local commit index, run
// applied (lock release, replica-record cleanup) after the versions are
// visible, and — at the home site, the only one where a client waits —
// acknowledge the client's callback once the commit is durable under the
// group-commit policy, or tell it the commit is not durable here.
func (b *base) commitPipelined(r *replica, applied func()) {
	r.entry[0] = commitpipe.Entry{Writes: r.staged}
	t := commitpipe.Txn{ID: r.id, Entries: r.entry[:], Applied: applied}
	if tx := b.local[r.id]; tx != nil {
		t.Ack = func(durable bool) {
			if durable {
				b.finish(tx, Committed, ReasonNone)
			} else {
				b.finish(tx, Aborted, ReasonStorage)
			}
		}
	}
	b.pipe.Submit(t)
}

// Stats returns the engine's counters.
func (b *base) Stats() *Stats { return &b.stats }

// Pipeline exposes the site's commit pipeline.
func (b *base) Pipeline() *commitpipe.Pipeline { return b.pipe }

// Store exposes the local database.
func (b *base) Store() *storage.Store { return b.store }

// Locks exposes the local lock table (tests).
func (b *base) Locks() *lockmgr.Manager { return b.locks }

// Membership exposes the view manager (nil without failure handling, and
// always under partial replication).
func (b *base) Membership() *membership.Manager { return b.mem }

// DebugActive renders one line per live local transaction — state, write
// pipeline position, and outstanding acknowledgement set — for test and
// tool diagnostics.
func (b *base) DebugActive() []string {
	out := make([]string, 0, len(b.local))
	for _, tx := range b.local {
		line := fmt.Sprintf("%v state=%d wrote=%v nextOp=%d/%d inFlight=%v", tx.ID, tx.state, tx.wrote, tx.nextOp, len(tx.writes), tx.opInFlight)
		if len(tx.ackWait) > 0 {
			line += fmt.Sprintf(" awaiting=%v", tx.ackWait)
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}
