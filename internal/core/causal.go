package core

import (
	"time"

	"repro/internal/broadcast"
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
)

// CausalEngine implements protocol C: writes are disseminated by causal
// broadcast and positive acknowledgements are never sent. The home site
// infers that site s has processed its write w (broadcast as this site's
// k-th causal message) once it delivers any causal message from s whose
// vector clock shows s had delivered k messages from here — the "implicit
// acknowledgement" the paper mines from the exposed vector clocks. A
// conflicting write triggers an explicit broadcast negative
// acknowledgement; causal FIFO delivery guarantees the home site sees a
// NACK from s no later than s's implicit acknowledgement, so checking for
// NACKs at the moment all implicit acks are in is sound. One causal
// commit-decision broadcast replaces protocol R's entire vote round.
//
// The paper's noted drawback — implicit acks stall when sites fall silent —
// is mitigated by the configurable CausalHeartbeat null broadcast.
type CausalEngine struct {
	lockedReplica
	ackedBy map[message.SiteID]uint64 // highest own-seq each peer is known to have delivered
	waiting map[message.TxnID]*Tx     // local txns awaiting implicit acknowledgements

	lastSend time.Duration
}

var _ Engine = (*CausalEngine)(nil)

// NewCausal creates a protocol C engine on rt.
func NewCausal(rt env.Runtime, cfg Config) *CausalEngine {
	e := &CausalEngine{
		ackedBy: make(map[message.SiteID]uint64),
		waiting: make(map[message.TxnID]*Tx),
	}
	e.lockedReplica = newLockedReplica(rt, cfg, "causal", e, e.onViewChange, e.deliver)
	return e
}

// Start implements env.Node.
func (e *CausalEngine) Start() {
	e.start()
	if e.cfg.CausalHeartbeat > 0 {
		e.rt.SetTimer(e.cfg.CausalHeartbeat, e.heartbeat)
	}
}

// heartbeat broadcasts a CausalNull when this site has been silent for a
// full interval, keeping peers' implicit acknowledgements flowing. A site
// excluded from the primary partition keeps the timer chain alive but
// stays silent: its null broadcasts carry a vector clock that is about to
// be superseded by state transfer, and peers mining them for implicit
// acknowledgements would count a site that is not serving transactions.
// The chain itself re-arms unconditionally so heartbeats resume the
// interval after the site rejoins a primary view; the runtime stops the
// timers when the site goes away entirely (the simulator suppresses a
// crashed site's timers, the TCP host cancels all timers on Close).
func (e *CausalEngine) heartbeat() {
	hb := e.cfg.CausalHeartbeat
	e.rt.SetTimer(hb, e.heartbeat)
	if !e.inPrimary() {
		return
	}
	if e.rt.Now()-e.lastSend >= hb {
		e.cbcast(&message.CausalNull{From: e.rt.ID()})
	}
}

// cbcast broadcasts causally and notes the send time for the heartbeat.
func (e *CausalEngine) cbcast(p message.Message) uint64 {
	e.lastSend = e.rt.Now()
	return e.stack.Broadcast(message.ClassCausal, p)
}

// Receive implements env.Node.
func (e *CausalEngine) Receive(from message.SiteID, m message.Message) {
	switch {
	case e.receiveFailure(from, m):
		// Liveness and view changes, handled.
	case broadcast.Handles(m):
		e.stack.Handle(from, m)
	default:
		e.rt.Logf("causal: unexpected %v from %v", m.Kind(), from)
	}
}

// Write implements Engine. The write set is broadcast in one WriteBatch
// at commit. Under Config.PerOpWrites, the paper's arm, each write is
// broadcast as it is staged; unlike protocol R there is no per-operation
// acknowledgement wait, since causal FIFO delivery lets the home site
// pipeline all its writes back to back.
func (e *CausalEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	if err := e.bufferWrite(tx, key, val); err != nil {
		return err
	}
	if !e.cfg.PerOpWrites {
		return nil
	}
	e.tr.Point(tx.ID, trace.KindWriteSend, uint64(len(tx.writes)), e.rt.ID(), 1)
	tx.lastCSeq = e.cbcast(&message.WriteReq{
		Txn: tx.ID, OpSeq: len(tx.writes), Key: key, Value: val,
	})
	// The local self-delivery may have refused the lock and doomed the
	// transaction synchronously; Commit will report it.
	return nil
}

// startCommit disseminates the write batch (unless each write went out as
// it was staged), then waits for the implicit acknowledgements of every
// write.
func (e *CausalEngine) startCommit(tx *Tx) {
	tx.commitAt = e.rt.Now()
	e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), 0)
	if !e.cfg.PerOpWrites && !tx.opInFlight {
		// opInFlight doubles as "batch disseminated" here: it must be set
		// before the broadcast because the local self-delivery can refuse
		// the batch and abort the transaction re-entrantly, and that abort
		// needs to know peers now hold state.
		tx.opInFlight = true
		e.tr.Point(tx.ID, trace.KindWriteSend, 0, e.rt.ID(), int64(len(tx.writes)))
		tx.lastCSeq = e.cbcast(&message.WriteBatch{Txn: tx.ID, Writes: message.DedupWrites(tx.writes)})
		if tx.state == txDone {
			return // the local all-or-nothing acquisition refused the batch
		}
	}
	tx.state = txCommitWait
	e.waiting[tx.ID] = tx
	e.checkCommit(tx)
}

// abortLocal aborts a home transaction: once any of its writes was
// disseminated, the abort decision is broadcast so every site releases the
// staged state.
func (e *CausalEngine) abortLocal(tx *Tx, reason AbortReason) {
	if tx.state == txDone {
		return
	}
	delete(e.waiting, tx.ID)
	disseminated := len(tx.writes) > 0
	if !e.cfg.PerOpWrites {
		disseminated = tx.opInFlight
	}
	if disseminated {
		// Causal FIFO guarantees every site delivers all of the
		// transaction's writes before this abort decision, so receivers can
		// drop the tombstone immediately.
		e.cbcast(&message.Decision{Txn: tx.ID, Commit: false, NOps: len(tx.writes)})
	} else {
		e.locks.ReleaseAll(tx.ID)
	}
	e.finish(tx, Aborted, reason)
}

// checkCommit tests the implicit-acknowledgement condition for one waiting
// transaction and broadcasts the commit decision when it holds.
func (e *CausalEngine) checkCommit(tx *Tx) {
	if tx.state != txCommitWait {
		return
	}
	if r := e.remote[tx.ID]; r != nil && r.doomed {
		e.abortLocal(tx, ReasonWriteConflict)
		return
	}
	for _, s := range e.members() {
		if s == e.rt.ID() {
			continue
		}
		if e.ackedBy[s] < tx.lastCSeq {
			return // implicit acknowledgement still outstanding
		}
	}
	// All sites have processed every write and no negative acknowledgement
	// arrived (causal FIFO would have delivered it before the final
	// implicit ack). Announce the commit; the self-delivery applies it here.
	delete(e.waiting, tx.ID)
	// The implicit-acknowledgement round is closed: one ack-wait span per
	// committed transaction, never an explicit ack message.
	e.tr.Interval(tx.ID, trace.KindAckWait, tx.commitAt, tx.lastCSeq, e.rt.ID(), 0)
	e.cbcast(&message.Decision{Txn: tx.ID, Commit: true, NOps: len(tx.writes)})
}

// deliver handles causal deliveries at every site. The vector clock of
// every delivered message — whatever its payload — refreshes the implicit
// acknowledgement state first; then the payload is dispatched; then waiting
// commits are re-checked so a NACK in the same message is seen before the
// acknowledgement it implies.
func (e *CausalEngine) deliver(d broadcast.Delivery) {
	if d.Origin != e.rt.ID() {
		if own := d.VC.Get(int(e.rt.ID())); own > e.ackedBy[d.Origin] {
			e.ackedBy[d.Origin] = own
		}
	}
	switch p := d.Payload.(type) {
	case *message.WriteReq:
		e.onWrites(p.Txn, []message.KV{{Key: p.Key, Value: p.Value}})
	case *message.WriteBatch:
		e.onWrites(p.Txn, p.Writes)
	case *message.TxnNack:
		e.onNack(p)
	case *message.Decision:
		e.onDecision(p)
	case *message.CausalNull:
		// Clock carrier only.
	default:
		e.rt.Logf("causal: unexpected payload %v", d.Payload.Kind())
	}
	if len(e.waiting) > 0 {
		for _, tx := range sortedTxns(e.waiting) {
			e.checkCommit(tx)
		}
	}
}

// onWrites stages a replicated write, or a deferred write set, under the
// never-wait rule; a conflict broadcasts the explicit negative
// acknowledgement.
func (e *CausalEngine) onWrites(txn message.TxnID, writes []message.KV) {
	r := e.rtxn(txn)
	if r.doomed {
		return
	}
	refused, ok := e.stage(r, writes)
	switch {
	case ok:
	case txn.Site == e.rt.ID():
		// Our own write conflicted locally: abort directly, no need to
		// tell ourselves with a NACK broadcast.
		if tx := e.local[txn]; tx != nil {
			e.abortLocal(tx, ReasonWriteConflict)
		}
	default:
		e.cbcast(&message.TxnNack{Txn: txn, By: e.rt.ID(), Key: refused})
	}
}

// onNack dooms the transaction at every site; the home site aborts it. A
// missing record means the decision already arrived (causal order
// guarantees the NACKed write itself preceded this message), so a NACK must
// never recreate state.
func (e *CausalEngine) onNack(n *message.TxnNack) {
	e.tr.Point(n.Txn, trace.KindNack, 0, n.By, 0)
	r := e.remote[n.Txn]
	if r == nil {
		return
	}
	if !r.doomed {
		e.discard(r)
	}
	if tx := e.local[n.Txn]; tx != nil {
		e.abortLocal(tx, ReasonWriteConflict)
	}
}

// onDecision applies or discards; causal FIFO ensures all of the
// transaction's writes arrived first, so the record can be dropped either
// way.
func (e *CausalEngine) onDecision(d *message.Decision) {
	r := e.remote[d.Txn]
	if d.Commit {
		if r == nil || r.doomed {
			// A commit decision can only follow universal staging; a doomed
			// record here would be a protocol violation.
			e.rt.Logf("causal: commit decision for missing/doomed %v", d.Txn)
			return
		}
		e.commitReplica(r)
		return
	}
	if r != nil {
		e.discard(r)
		delete(e.remote, d.Txn)
	}
}

// onViewChange drops departed sites from the acknowledgement condition,
// aborts orphaned remote transactions, and aborts everything local when the
// site leaves the primary partition.
func (e *CausalEngine) onViewChange(_, _ message.View) {
	e.stack.OnViewChange()
	if !e.inPrimary() {
		e.abortAllLocal()
		return
	}
	members := e.memberSet()
	for _, r := range e.remoteSnapshot() {
		if !members[r.id.Site] {
			e.discard(r)
			delete(e.remote, r.id)
		}
	}
	for _, tx := range sortedTxns(e.waiting) {
		e.checkCommit(tx)
	}
}

// AckedBy exposes the implicit-acknowledgement vector (tests, tools).
func (e *CausalEngine) AckedBy() map[message.SiteID]uint64 {
	out := make(map[message.SiteID]uint64, len(e.ackedBy))
	for k, v := range e.ackedBy {
		out[k] = v
	}
	return out
}
