// Package commitpipe implements the commit tail shared by every
// replication engine: WAL group-commit → versioned apply → client
// acknowledgement. The paper's three protocols (and the two
// point-to-point baselines) differ only in how a transaction *reaches* the
// commit decision — reliable-broadcast votes, implicit causal
// acknowledgements, a deterministic certification of the total order,
// centralized 2PC, or quorum intersection. What happens after the decision
// is identical, and used to be five hand-rolled copies; engines now feed a
// small protocol adapter (Txn) into one Pipeline per site.
//
// The pipeline runs on the site's event loop and does no locking of its
// own. Installs into the versioned store are synchronous — local reads must
// observe a committed transaction as soon as its protocol decides it — but
// durability is batched: under group commit the log records of consecutive
// commits buffer, one write + one fsync makes the whole batch durable, and
// only then do the deferred client acknowledgements fire. The fsync — the
// dominant hot-path cost — is amortized over the batch, and an acknowledged
// transaction is always on disk.
//
// Group commit needs a WAL, a Policy that asks for it and a runtime that
// offers Config.Offload (internal/livenet's syncer goroutine, internal/sim's
// virtual disk). The write+fsync then leaves the loop: a flush starts the
// moment a record is pending and none is in flight — the loop detaches the
// log's buffered batch and its acknowledgement list (a buffer swap) and
// hands the write+fsync to the runtime; the completion re-enters the loop,
// fires the acknowledgements and, if records arrived meanwhile, detaches
// the next batch at once. A batch is whatever arrived during the previous
// fsync — self-clocked group commit — so no commit waits out a timer and
// the loop never waits for the disk on the commit path. Without any of the
// three (a bare pipeline included) every record syncs on its own and is
// acknowledged at once.
package commitpipe

import (
	"fmt"
	"time"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/sgraph"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Policy turns group commit on. The zero value disables it. Batches are
// self-clocked, so there is nothing to bound: the struct keeps the shape of
// the count and delay bounds it once carried because bench/ builds it
// literally.
type Policy struct {
	// MaxBatch > 1 turns group commit on; the magnitude means nothing.
	// <= 1 means every record syncs individually.
	MaxBatch int
	// MaxDelay is unread.
	MaxDelay time.Duration
}

// Grouped reports whether the policy batches fsyncs.
func (p Policy) Grouped() bool { return p.MaxBatch > 1 }

// Config wires a pipeline to its site.
type Config struct {
	// Site is the owning site's identifier (trace/recorder attribution).
	Site message.SiteID
	// Store is the site's versioned database; its WAL (if any) is the
	// pipeline's durability device.
	Store *storage.Store
	// Policy configures group commit.
	Policy Policy
	// Offload takes the grouped write+fsync off the event loop
	// (livenet.Host.Offload, the simulator's virtual disk): work may run on
	// another goroutine, jobs in the order given and one at a time; done
	// runs on the event loop after work returned, or never if the runtime
	// closed or the site crashed first. A false return means the runtime is
	// closing and took nothing. Nil means no group commit. With Offload
	// set, Now is also called from work's goroutine.
	Offload func(work, done func()) bool
	// Now supplies timestamps for the fsync-latency histogram: real elapsed
	// time under internal/livenet, virtual time under internal/sim (where
	// fsync latency is invisible by design — the simulator's clock does not
	// advance inside a callback).
	Now func() time.Duration
	// Recorder, when set, collects apply orders for the 1SR checker.
	Recorder *sgraph.Recorder
	// Tracer, when set, records one KindApply span per installed
	// transaction.
	Tracer *trace.Tracer
	// OnApply runs once per transaction that installed (engine stats hook).
	OnApply func(message.TxnID)
	// Logf reports apply failures (env.Runtime.Logf).
	Logf func(string, ...any)
}

// Entry is one versioned install inside a transaction: the lock-based
// engines submit a single entry whose index the pipeline assigns from the
// site's commit sequence; protocol A submits the total-order index; the
// quorum engine submits one versioned entry per surviving key.
type Entry struct {
	Writes []message.KV
	// Index is the commit index to install at; 0 means assign the next
	// per-site commit index (protocols R, C, and the ROWA baseline).
	Index uint64
	// Versioned marks a per-key quorum version install: the recorder sees
	// RecordVersionedApply and the apply trace span carries no LSN.
	Versioned bool
}

// Txn is a protocol adapter: one decided transaction submitted to the
// pipeline. Callbacks are optional and run on the event loop, in order:
// Applied (after the store install — release locks, drop replica records),
// Ack (the client-facing outcome; deferred to the batch fsync for committed
// transactions under group commit).
type Txn struct {
	ID      message.TxnID
	Entries []Entry
	// Aborted marks a transaction its protocol decided to abort (protocol
	// A's certification failure): no entry installs, Applied does not run
	// and Ack(false) fires at once.
	Aborted bool
	// Applied runs after the store install (and after trace/recorder
	// bookkeeping), whatever the WAL state: locks release here so waiting
	// readers observe the installed versions.
	Applied func()
	// Ack delivers the outcome to the waiting client, if any. Commit acks
	// ride the group-commit batch; abort acks never wait. A decided-commit
	// transaction still acks false when its install is rejected or its
	// batch's fsync fails: true always means durably committed.
	Ack func(committed bool)
	// TraceWrites overrides the write count the KindApply span reports
	// (quorum replicas count the full commit write set even when newer
	// local versions skip some installs). Zero means count the entries.
	TraceWrites int
}

// Pipeline is one site's commit tail. Owned by the site's event loop.
type Pipeline struct {
	cfg     Config
	wal     *storage.WAL
	grouped bool
	lsn     uint64 // per-site commit index for index-0 entries

	// The open batch: records in the log's append buffer and the
	// acknowledgements waiting for them.
	pendingAcks []func(bool)
	pendingRecs int

	// The batch in flight, at most one: detached from the log and with the
	// syncer. The syncer reads inflightBatch and sends the outcome on synced
	// (capacity 1), which is the "bytes are on disk" signal; whoever
	// receives it on the loop completes the batch.
	inflight      bool
	inflightBatch storage.Batch
	inflightAcks  []func(bool)
	detachedAt    time.Duration
	spareAcks     []func(bool) // the completed batch's list, reused
	synced        chan syncResult
	syncWork      func() // p.writeSync and p.onSynced, bound once so that a
	syncDone      func() // flush allocates nothing

	// BatchSizes observes records-per-fsync (dimensionless; see
	// metrics.Histogram.ScalarSummary). FsyncLatency observes the wall time
	// of each batch write+sync as seen by whoever ran it. DurableLatency
	// observes detach → completion on the loop: the fsync plus the wait for
	// the syncer before it and for the loop after.
	BatchSizes     *metrics.Histogram
	FsyncLatency   *metrics.Histogram
	DurableLatency *metrics.Histogram
	// Flushes counts batch fsyncs issued.
	Flushes int64

	batch   []storage.BatchEntry // scratch reused across submissions
	scratch []int                // per-txn record counts of the SubmitGroup calls on the stack
}

// syncResult is the syncer's report on one batch.
type syncResult struct {
	err error
	dur time.Duration // wall time of write+sync
}

// New creates a pipeline for one site, resuming the commit sequence from
// the store's applied index (recovered state continues, not restarts).
func New(cfg Config) *Pipeline {
	p := &Pipeline{
		cfg:            cfg,
		lsn:            cfg.Store.Applied(),
		BatchSizes:     metrics.NewHistogram(0),
		FsyncLatency:   metrics.NewHistogram(0),
		DurableLatency: metrics.NewHistogram(0),
		synced:         make(chan syncResult, 1),
	}
	p.syncWork, p.syncDone = p.writeSync, p.onSynced
	p.wal = cfg.Store.WAL()
	p.grouped = p.wal != nil && cfg.Policy.Grouped() && cfg.Offload != nil
	if p.grouped {
		p.wal.SetGrouped(true)
	}
	return p
}

// Submit runs one transaction through the pipeline.
func (p *Pipeline) Submit(t Txn) {
	p.SubmitGroup([]Txn{t}) // the slice does not escape: no allocation
}

// SubmitGroup runs a group of decided transactions through the pipeline
// under one store traversal: every entry of a transaction not Aborted
// installs with a single Store.ApplyBatch, then per-transaction bookkeeping
// and acknowledgements follow, in group order. The caller must leave txns
// alone until the call returns, even from inside a callback.
//
// A callback may re-enter the pipeline with a new submission (an Ack that
// commits the client's next transaction, an Applied that releases the lock
// a waiting one needed), so the per-transaction record counts live in a
// segment of p.scratch that this call pushes and pops like a stack frame,
// and are always reached through p.scratch: a nested call may have moved it.
func (p *Pipeline) SubmitGroup(txns []Txn) {
	base := len(p.scratch)
	for range txns {
		p.scratch = append(p.scratch, 0)
	}
	p.submitGroup(txns, base)
	p.scratch = p.scratch[:base]
}

func (p *Pipeline) submitGroup(txns []Txn, base int) {
	p.batch = p.batch[:0]
	for i := range txns {
		if t := &txns[i]; !t.Aborted {
			p.scratch[base+i] = p.enqueue(t)
		}
	}
	recs := len(p.batch)
	rejected := false
	if recs > 0 {
		if err := p.cfg.Store.ApplyBatch(p.batch); err != nil {
			p.logf("commitpipe: site %v apply batch: %v", p.cfg.Site, err)
			// The group was rejected before any record reached the WAL
			// buffer (ApplyBatch validates first): nothing new to fsync.
			// Every txn that had installs in it lost them; its client must
			// not hear commit.
			rejected = true
			recs = 0
		}
	}
	for i := range txns {
		t := &txns[i]
		if t.Aborted {
			if t.Ack != nil {
				t.Ack(false)
			}
			continue
		}
		if !(rejected && p.scratch[base+i] > 0) {
			p.bookkeep(t)
		}
		// Applied runs even for a failed install: it releases locks and
		// drops replica records, and skipping it would wedge the site.
		if t.Applied != nil {
			t.Applied()
		}
	}
	// Acknowledgements last: under group commit they queue behind the
	// batch's fsync; otherwise (records already synced one by one, or no
	// WAL at all) they fire now.
	if p.grouped {
		p.pendingRecs += recs
	}
	for i := range txns {
		t := &txns[i]
		if t.Aborted || t.Ack == nil {
			continue
		}
		switch nrecs := p.scratch[base+i]; {
		case rejected && nrecs > 0:
			t.Ack(false)
		case !p.grouped || nrecs == 0:
			// Nothing of this txn awaits an fsync; queueing it would not
			// advance the batch toward a flush, and on a quiescent site the
			// ack could wait forever.
			t.Ack(true)
		default:
			p.pendingAcks = append(p.pendingAcks, t.Ack)
		}
	}
	if p.pendingRecs > 0 && !p.inflight {
		p.detach()
	}
}

// enqueue assigns commit indexes to one committing transaction's entries
// and stages its non-empty write records into the reusable batch scratch,
// returning how many records it contributed. This runs once per decided
// transaction on the event loop — the commit hot path — and must stay
// allocation-free: the batch scratch's amortized growth is the sanctioned
// exception, and TestEnqueueAllocs pins the whole path at 0 allocs/op.
//
// reprolint:noalloc
func (p *Pipeline) enqueue(t *Txn) int {
	n := 0
	for j := range t.Entries {
		e := &t.Entries[j]
		if e.Index == 0 {
			p.lsn++
			e.Index = p.lsn
		} else if e.Index > p.lsn {
			p.lsn = e.Index
		}
		if len(e.Writes) == 0 {
			continue
		}
		p.batch = append(p.batch, storage.BatchEntry{
			Txn: t.ID, Writes: message.DedupWrites(e.Writes), Index: e.Index,
		})
		n++
	}
	return n
}

// bookkeep emits the recorder entries, the apply span, and the stats hook
// for one installed transaction.
func (p *Pipeline) bookkeep(t *Txn) {
	writes := 0
	seq := uint64(0)
	for i := range t.Entries {
		e := &t.Entries[i]
		deduped := message.DedupWrites(e.Writes)
		writes += len(deduped)
		if len(t.Entries) == 1 && !e.Versioned {
			seq = e.Index
		}
		if p.cfg.Recorder != nil {
			for _, w := range deduped {
				if e.Versioned {
					p.cfg.Recorder.RecordVersionedApply(p.cfg.Site, w.Key, t.ID, e.Index)
				} else {
					p.cfg.Recorder.RecordApply(p.cfg.Site, w.Key, t.ID)
				}
			}
		}
	}
	if t.TraceWrites > 0 {
		writes = t.TraceWrites
	}
	if p.cfg.OnApply != nil {
		p.cfg.OnApply(t.ID)
	}
	p.cfg.Tracer.Point(t.ID, trace.KindApply, seq, p.cfg.Site, int64(writes))
}

// Flush makes everything submitted so far durable and releases its
// acknowledgements (shutdown, tests). It waits, on the loop, until nothing
// is pending and nothing is in flight, taking the syncer's signal itself
// instead of waiting for the posted completion, which needs the loop this
// call is holding. A no-op without group commit or with nothing pending.
func (p *Pipeline) Flush() {
	for p.inflight || p.pendingRecs > 0 {
		if !p.inflight {
			p.detach()
			continue
		}
		r := <-p.synced //reprolint:allow nonblock Flush/Barrier must return with the log durable (checkpoint, shutdown); the wait is for the syncer, which never needs the loop, and is bounded by one fsync per batch
		p.complete(r)
	}
}

// Pending returns the number of commit acknowledgements waiting for an
// fsync, in the open batch or in flight (tests).
func (p *Pipeline) Pending() int { return len(p.pendingAcks) + len(p.inflightAcks) }

// Barrier flushes any buffered group commit and returns the pipeline's
// current commit index. The checkpointer calls it before capturing store
// state so the WAL on disk covers everything the capture reflects — a
// checkpoint must never get ahead of the log it is about to truncate
// behind. On return no batch is in flight, so the log's files are the
// caller's until it lets the loop go.
func (p *Pipeline) Barrier() uint64 {
	p.Flush()
	return p.lsn
}

// closeBatch takes the open batch's acknowledgement list, leaving an empty
// open batch behind (on the recycled list of the last completed one).
func (p *Pipeline) closeBatch() []func(bool) {
	acks := p.pendingAcks
	p.pendingAcks, p.spareAcks = p.spareAcks[:0], nil
	p.pendingRecs = 0
	return acks
}

// detach starts the off-loop flush of the open batch: the log's buffered
// records and their acknowledgements become the batch in flight, and the
// write+fsync goes to the runtime's syncer. O(1) on the loop, no copy, no
// allocation. Call only with no batch in flight.
func (p *Pipeline) detach() {
	p.inflightBatch = p.wal.Detach()
	p.inflightAcks = p.closeBatch()
	p.inflight = true
	p.detachedAt = p.now()
	if !p.cfg.Offload(p.syncWork, p.syncDone) {
		// The runtime is closing and will run nothing more: finish here.
		p.writeSync() //reprolint:allow nonblock the runtime refused the job because it is shutting down; the batch is written on the spot so that a Flush during shutdown still makes it durable
		p.onSynced()
	}
}

// writeSync is the syncer's half of a flush: make the batch in flight
// durable, then signal it. It runs off the loop and touches nothing of the
// pipeline but inflightBatch (stable while the batch is in flight), the log's
// writing side and the channel. The send never blocks: one batch in flight,
// one slot.
func (p *Pipeline) writeSync() {
	start := p.now()
	err := p.wal.WriteSync(p.inflightBatch)
	p.synced <- syncResult{err: err, dur: p.now() - start}
}

// onSynced is the completion the runtime posts back onto the loop. The
// signal may already have been taken by a Flush that could not wait for
// the post, in which case this is a no-op; or, after such a Flush, the
// signal found here belongs to a later batch whose own completion is still
// on its way, and completing it now is just as right — a signal on synced
// always means the batch in flight is on disk.
func (p *Pipeline) onSynced() {
	select {
	case r := <-p.synced:
		p.complete(r)
	default:
	}
}

// complete retires the batch in flight on the loop: recycle its buffer,
// start the next flush if records accumulated meanwhile (before the
// acknowledgements, so the disk works while they run), then fire them.
func (p *Pipeline) complete(r syncResult) {
	n := p.inflightBatch.Records()
	p.wal.Recycle(p.inflightBatch)
	acks := p.inflightAcks
	p.inflightAcks = nil
	p.inflight = false
	if r.err == nil {
		p.DurableLatency.Observe(p.now() - p.detachedAt)
	}
	if p.pendingRecs > 0 {
		p.detach()
	}
	p.finish(n, r, acks)
}

// finish observes one written batch and fires its acknowledgements. A
// failed write means the batch never became durable; the guarantee is that
// an acknowledged transaction is on disk, so the waiting clients hear
// failure, not commit. An acknowledgement may re-enter the pipeline with a
// new submission; acks is no longer reachable from p by then.
func (p *Pipeline) finish(n int, r syncResult, acks []func(bool)) {
	if r.err != nil {
		p.logf("commitpipe: site %v wal flush: %v", p.cfg.Site, r.err)
	} else if n > 0 {
		p.FsyncLatency.Observe(r.dur)
		p.BatchSizes.Observe(time.Duration(n))
		p.Flushes++
	}
	for _, ack := range acks {
		ack(r.err == nil)
	}
	clear(acks)
	p.spareAcks = acks[:0]
}

func (p *Pipeline) now() time.Duration {
	if p.cfg.Now == nil {
		return 0
	}
	return p.cfg.Now()
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Summary renders the group-commit counters on one line (replicadb STATS).
func (p *Pipeline) Summary() string {
	inflight := 0
	if p.inflight {
		inflight = 1
	}
	return fmt.Sprintf("wal_flushes=%d sync_inflight=%d batch[%s] fsync[%s] durable[%s]",
		p.Flushes, inflight, p.BatchSizes.ScalarSummary(), p.FsyncLatency.Summary(), p.DurableLatency.Summary())
}
