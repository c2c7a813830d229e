package core

import (
	"time"

	"repro/internal/broadcast"
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
)

// AtomicEngine implements protocol A: the commit request, carrying the
// transaction's write set, is delivered by atomic broadcast. (Under
// Config.PerOpWrites, the paper's arm, each write is instead disseminated
// by causal broadcast as it is staged.) Because every site
// processes the identical total order of commit requests with the identical
// deterministic certification rule, no acknowledgements of any kind are
// exchanged during commitment — the paper's headline property.
//
// The deterministic decision rule is version certification: the commit
// request carries the transaction's read and write sets with the base
// versions (total-order commit indices) it observed at its home site; a
// site processing the request at total-order index i aborts the transaction
// iff some key's last committed version exceeds the base version, and
// otherwise installs the writes at version i. Reads run against a local
// committed snapshot, so read-only transactions never broadcast, never
// block, and never abort.
type AtomicEngine struct {
	*replicaGroup // the one replication group: every site, on the site runtime

	pendingWrites map[message.TxnID][]message.KV
	queue         []certItem

	// Resynchronization: a site that fell out of the primary partition
	// stops serving (stale) and, on rejoining, requests a state transfer.
	syncPending bool
	lastStall   uint64

	// drainScheduled coalesces certification under the batch orderer: the
	// broadcast stack delivers a sealed batch's requests back to back in
	// one handler turn, and a single deferred drain turns the whole batch
	// into one pipeline group (one shared fsync) instead of one per
	// request.
	drainScheduled bool
}

type certItem struct {
	idx uint64
	req *message.CommitReq
	at  time.Duration // when the ordered request arrived at this site
}

var _ Engine = (*AtomicEngine)(nil)

// NewAtomic creates a protocol A engine on rt.
func NewAtomic(rt env.Runtime, cfg Config) *AtomicEngine {
	b := newBase(rt, cfg, "atomic")
	e := &AtomicEngine{pendingWrites: make(map[message.TxnID][]message.KV)}
	e.replicaGroup = &replicaGroup{
		base: b, rt: rt, view: b.members, store: b.store, pipe: b.pipe,
		export:    func() carriage { return carriage{Pending: e.clonePending()} },
		installed: e.adoptPending,
	}
	e.initViews(func(_, _ message.View) { e.onViewChange() })
	e.open(e.deliver, cfg.Checkpoint, cfg.InitialStack)
	b.ckpt = e.ckpt // the site's checkpointer (Checkpointer, start) is the group's
	return e
}

// Start implements env.Node.
func (e *AtomicEngine) Start() {
	e.start()
	if e.det != nil {
		e.rt.SetTimer(e.probeInterval(), e.gapProbe)
	}
}

// gapProbe runs the group's gap detector and, when the ordered stream is
// whole, escalates to a full state transfer where retransmission cannot
// help: a certification stall (see below) only a snapshot can clear.
func (e *AtomicEngine) gapProbe() {
	defer e.rt.SetTimer(e.probeInterval(), e.gapProbe)
	switch {
	case e.stale:
		// Resynchronizing: the pending state transfer covers any gap.
	case e.probe():
		e.lastStall = 0
	default:
		e.checkCertStall()
	}
}

// checkCertStall escalates a persistent certification stall to a snapshot
// request. Only a causal-write request (see inlineWrites) can stall: the
// shipped path carries every write in the ordered request itself, so gap
// repair of the ordered stream alone catches a site up. Normally the queue
// head waiting for disseminated writes is a transient condition — causal
// broadcast eventually delivers them. But a site that restarts after its
// peers certified an index holds a retransmitted commit request whose
// WriteReqs were consumed cluster-wide before it rejoined: no peer will
// ever resend them, and retransmission of the ordered stream cannot supply
// them. Only a state transfer covers that index. The stall must persist
// across two probes before escalating so an ordinary in-flight
// dissemination is not mistaken for a lost one.
func (e *AtomicEngine) checkCertStall() {
	if len(e.queue) == 0 {
		e.lastStall = 0
		return
	}
	head := e.queue[0]
	if inlineWrites(head.req) || len(e.pendingWrites[head.req.Txn]) >= head.req.NWrites {
		e.lastStall = 0
		return // deliverable; drain will handle it
	}
	if head.idx != e.lastStall {
		e.lastStall = head.idx
		return
	}
	if !e.syncPending {
		e.rt.Logf("atomic: certification stalled at index %d awaiting unrecoverable writes; requesting state transfer", head.idx)
		e.requestState()
	}
}

// Receive implements env.Node.
func (e *AtomicEngine) Receive(from message.SiteID, m message.Message) {
	switch {
	case e.receiveFailure(from, m):
		// Liveness and view changes, handled.
	case e.receive(from, m):
		// The group's own traffic: stack, state transfer, gap repair.
	default:
		e.rt.Logf("atomic: unexpected %v from %v", m.Kind(), from)
	}
}

// Begin implements Engine. The transaction reads from the snapshot of all
// certified commits processed so far at this site.
func (e *AtomicEngine) Begin(readOnly bool) *Tx {
	tx := e.begin(readOnly)
	tx.snapshot = e.certIndex
	return tx
}

// Read implements Engine: a snapshot read, no locks, never blocking.
func (e *AtomicEngine) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	if e.stale {
		cb(nil, ErrNotPrimary)
		return
	}
	if err := e.readPrecheck(tx); err != nil {
		cb(nil, err)
		return
	}
	val, ver, err := snapshotRead(tx, e.store, key, tx.snapshot)
	if err != nil {
		cb(nil, err)
		return
	}
	tx.readVers = append(tx.readVers, ver)
	cb(val, nil)
}

// Write implements Engine.
func (e *AtomicEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	if e.stale {
		return ErrNotPrimary
	}
	if err := e.bufferWrite(tx, key, val); err != nil {
		return err
	}
	if e.cfg.PerOpWrites {
		e.tr.Point(tx.ID, trace.KindWriteSend, uint64(len(tx.writes)), e.rt.ID(), 1)
		e.stack.Broadcast(message.ClassCausal, &message.WriteReq{
			Txn: tx.ID, OpSeq: len(tx.writes), Key: key, Value: val,
		})
	}
	return nil
}

// Commit implements Engine: one atomic broadcast, zero acknowledgements.
// The callback fires when this site processes the request in total order.
func (e *AtomicEngine) Commit(tx *Tx, cb func(Outcome, AbortReason)) {
	if tx.state == txDone {
		cb(tx.outcome, tx.reason)
		return
	}
	tx.commitCB = cb
	if tx.state == txCommitWait {
		return
	}
	if !tx.wrote {
		e.finish(tx, Committed, ReasonNone)
		return
	}
	tx.state = txCommitWait
	writes := message.DedupWrites(tx.writes)
	req := &message.CommitReq{
		Txn:     tx.ID,
		Reads:   tx.readVers,
		Writes:  make([]message.KeyVer, 0, len(writes)),
		NWrites: len(tx.writes),
	}
	for _, w := range writes {
		ver := uint64(0)
		if rec, ok, err := e.store.GetAt(w.Key, tx.snapshot); err == nil && ok {
			ver = rec.Index
		}
		req.Writes = append(req.Writes, message.KeyVer{Key: w.Key, Ver: ver})
	}
	if !e.cfg.PerOpWrites {
		req.WriteKV = writes
		e.tr.Point(tx.ID, trace.KindWriteSend, 0, e.rt.ID(), int64(len(writes)))
	}
	tx.commitAt = e.rt.Now()
	e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), 0)
	e.stack.Broadcast(message.ClassAtomic, req)
}

// Abort implements Engine.
func (e *AtomicEngine) Abort(tx *Tx) {
	if tx.state != txActive {
		return
	}
	if e.cfg.PerOpWrites && len(tx.writes) > 0 {
		// Tell peers to drop the disseminated writes; causal FIFO delivers
		// this after every one of them.
		e.stack.Broadcast(message.ClassCausal, &message.Decision{Txn: tx.ID, Commit: false, NOps: len(tx.writes)})
	}
	e.finish(tx, Aborted, ReasonClient)
}

// deliver routes broadcast deliveries: atomic carries commit requests,
// causal the causal-write arm's write dissemination and client aborts.
func (e *AtomicEngine) deliver(d broadcast.Delivery) {
	switch p := d.Payload.(type) {
	case *message.WriteReq:
		e.pendingWrites[p.Txn] = append(e.pendingWrites[p.Txn], message.KV{Key: p.Key, Value: p.Value})
		e.scheduleDrain()
	case *message.Decision:
		if !p.Commit {
			delete(e.pendingWrites, p.Txn)
		}
	case *message.CommitReq:
		e.queue = append(e.queue, certItem{idx: d.Index, req: p, at: e.rt.Now()})
		e.scheduleDrain()
	default:
		e.rt.Logf("atomic: unexpected payload %v", d.Payload.Kind())
	}
}

// scheduleDrain runs certification for newly deliverable requests. Under
// the batch orderer it defers the drain to a zero-delay timer (armed once
// per handler turn) so all requests of a sealed batch — delivered back to
// back by the stack — certify as one pipeline group; the other modes keep
// the immediate path and their per-delivery group formation.
func (e *AtomicEngine) scheduleDrain() {
	if e.cfg.AtomicMode != broadcast.AtomicBatch {
		e.drain()
		return
	}
	if e.drainScheduled {
		return
	}
	e.drainScheduled = true
	e.rt.SetTimer(0, func() {
		e.drainScheduled = false
		e.drain()
	})
}

// drain certifies queued commit requests strictly in total order, each at
// its order index by the deterministic rule every site applies identically.
// A causal-write request at the head stalls until every write it
// announced has arrived — all sites stall identically, so determinism is
// preserved; causal broadcast's eventual delivery guarantees progress. The
// maximal deliverable run is handed to the pipeline as one group so its
// installs share a single store traversal and its log records one fsync.
func (e *AtomicEngine) drain() {
	o := e.takeGroup()
	n := 0
	for ; n < len(e.queue); n++ {
		item := e.queue[n]
		req := item.req
		var writes []message.KV
		if inlineWrites(req) {
			writes = req.WriteKV
		} else {
			writes = e.pendingWrites[req.Txn]
			if len(writes) < req.NWrites {
				break // await the causal write dissemination
			}
		}
		e.certIndex = item.idx
		delete(e.pendingWrites, req.Txn)
		ok := e.certify(req.Reads, req.Writes, writes)
		e.tr.Interval(req.Txn, trace.KindCertWait, item.at, item.idx, e.rt.ID(), 0)
		e.tr.Point(req.Txn, trace.KindCert, item.idx, e.rt.ID(), boolExtra(ok))
		e.order(&o, req.Txn, item.idx, writes, ok, e.ackFor(req.Txn))
	}
	// Compact before the pipeline runs: its ack loop may queue requests.
	rest := copy(e.queue, e.queue[n:])
	clear(e.queue[rest:])
	e.queue = e.queue[:rest]
	e.submit(o)
}

// inlineWrites reports whether a commit request carries its write set. The
// receiver decides by the request's content, not by its own Config, so a
// site applies correctly whichever arm the sending site runs: a request
// with values (or with no writes) certifies at once; one announcing writes
// without values comes from a PerOpWrites site and waits for them.
func inlineWrites(req *message.CommitReq) bool {
	return len(req.WriteKV) > 0 || req.NWrites == 0
}

// ackFor returns the acknowledgement of an ordered request: the waiting
// client's at the transaction's home site, none anywhere else.
func (e *AtomicEngine) ackFor(id message.TxnID) func(committed bool) {
	tx := e.local[id]
	if tx == nil {
		return nil
	}
	return func(committed bool) { e.finishCertified(tx, committed) }
}

// onViewChange lets the broadcast stack re-drive total ordering (sequencer
// failover), marks the site stale when it leaves the primary partition,
// and starts resynchronization when it rejoins one.
func (e *AtomicEngine) onViewChange() {
	e.stack.OnViewChange()
	if !e.inPrimary() {
		e.stale = true
		for _, tx := range sortedTxns(e.local) {
			if tx.state == txActive {
				e.finish(tx, Aborted, ReasonNotPrimary)
			}
		}
		return
	}
	if e.stale && !e.syncPending {
		e.requestState()
	}
}

// requestState asks a donor for a state transfer, retrying until one
// arrives. The request carries this site's applied index so the donor can
// ship O(delta) instead of the full store.
func (e *AtomicEngine) requestState() {
	donor := e.donor()
	if donor == e.rt.ID() {
		// Sole survivor of the primary view: nothing missed by definition.
		e.stale = false
		return
	}
	e.syncPending = true
	e.rt.Send(donor, &message.StateRequest{From: e.rt.ID(), HaveIndex: e.haveIndex()})
	e.rt.SetTimer(time.Second, func() {
		if e.syncPending {
			// No snapshot arrived: clear the guard so the next trigger (view
			// change or stall probe) can re-request from a fresh donor.
			e.syncPending = false
			if e.stale && e.inPrimary() {
				e.requestState()
			}
		}
	})
}

// clonePending copies the pending-write map (slice headers shared: senders
// only ever append) for embedding in an outgoing message.
func (e *AtomicEngine) clonePending() map[message.TxnID][]message.KV {
	p := make(map[message.TxnID][]message.KV, len(e.pendingWrites))
	for id, kvs := range e.pendingWrites {
		p[id] = kvs
	}
	return p
}

// mergePending adopts the donor's in-flight write dissemination. A
// transaction's WriteReqs arrive in a fixed order, so the donor's slice for
// a shared transaction is a prefix-extension of the local one: the longer
// slice wins. Slices are copied because in-process transports share backing
// arrays between sender and receiver.
func (e *AtomicEngine) mergePending(pending map[message.TxnID][]message.KV) {
	for id, kvs := range pending {
		if len(kvs) > len(e.pendingWrites[id]) {
			e.pendingWrites[id] = append([]message.KV(nil), kvs...)
		}
	}
}

// adoptPending is the group's installed callback: it adopts the donor's
// in-flight write dissemination. A completed transfer replaces this site's
// queue and pending writes — certification restarts from the transfer — and
// drops the site's pre-transfer apply history from the recorder, which
// replays from the transfer, not the stream. A SyncState merges, and
// re-drives certification with the adopted writes once the stack frontiers
// are in.
func (e *AtomicEngine) adoptPending(c carriage, transfer bool) func() {
	if !transfer {
		e.mergePending(c.Pending)
		return e.drain
	}
	e.queue = nil
	e.pendingWrites = make(map[message.TxnID][]message.KV)
	e.mergePending(c.Pending)
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.DropSite(e.rt.ID())
	}
	e.syncPending = false
	e.lastStall = 0
	return nil
}

// CertIndex exposes the last processed total-order index (tests, tools).
func (e *AtomicEngine) CertIndex() uint64 { return e.certIndex }

// Broadcasts exposes the stack's per-class delivery counters (tests).
func (e *AtomicEngine) Broadcasts() map[message.Class]int64 { return e.stack.Deliveries }

// PendingRemote returns the number of transactions with disseminated writes
// not yet consumed by certification plus queued commit requests (leak
// oracle for tests).
func (e *AtomicEngine) PendingRemote() int { return len(e.pendingWrites) + len(e.queue) }
