package core

import (
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/trace"
)

// Cross-shard commitment within one group: the prepare → vote → decide
// round at its ordered indices, the blocked-footprint bookkeeping that
// certification checks against, and the round state's recovery carriage
// (checkpoints and state transfers).

// blockSet tracks the undecided prepares holding one key. wrote counts
// the holders that write the key: any holder blocks concurrent writes,
// but only a writing holder blocks reads (a read-only hold leaves the
// key's value untouched either way).
type blockSet struct {
	held  map[message.TxnID]bool // holder → prepare writes the key
	wrote int
}

// preparedSub is one cross-shard transaction certified at its prepare
// index, awaiting the coordinator's decision.
type preparedSub struct {
	idx    uint64
	vote   bool
	coord  message.SiteID
	groups []message.GroupID // every group the transaction touches
	keys   []message.Key
	writes []message.KV
}

// decidedRetention bounds each group's remembered decision outcomes; old
// entries are evicted FIFO. Terminations resolve within a few detector
// timeouts, so any query for an evicted decision has long since stopped.
const decidedRetention = 4096

// coordState tracks one cross-shard transaction this site coordinates.
type coordState struct {
	groups  []message.GroupID        // touched groups, ascending
	votes   map[message.GroupID]bool // first verdict per group
	since   time.Duration            // when the round opened (local clock)
	decided bool
	outcome bool
	acked   map[message.GroupID]bool // groups whose durable decision landed
}

// adoptShard is the group's installed callback: a completed transfer
// replaces this member's cross-shard state with the donor's, which is
// exactly the deterministic function of the ordered prefix the transfer
// skips. A SyncState carries none.
func (g *shardGroup) adoptShard(c carriage, transfer bool) func() {
	if transfer {
		g.prepared = make(map[message.TxnID]*preparedSub)
		g.decided = make(map[message.TxnID]bool)
		g.decidedOrder = nil
		g.fenced = make(map[message.TxnID]bool)
		if c.Shard != nil {
			g.restoreShard(c.Shard)
		}
	}
	return nil
}

// restoreShard re-installs cross-shard certification state recovered from
// a checkpoint: certified-undecided prepares (re-blocking their
// footprints), remembered decision outcomes, and fences. A prepare whose
// written keys carry a store version above its prepare index was decided
// commit before the crash (its blocked footprint admits no other writer
// until the decision) and already reinstalled by WAL replay, so it is
// dropped instead of resurrected.
func (g *shardGroup) restoreShard(sr *message.ShardRecovery) {
	for _, d := range sr.Decided {
		g.recordDecided(d.Txn, d.Commit)
	}
	for _, txn := range sr.Fenced {
		g.fenced[txn] = true
	}
	for _, p := range sr.Prepared {
		if _, done := g.decided[p.Txn]; done {
			continue
		}
		if p.Vote && g.decisionReplayed(p) {
			continue
		}
		g.prepared[p.Txn] = &preparedSub{
			idx: p.Index, vote: p.Vote, coord: p.Coord, groups: p.Groups, keys: p.Keys, writes: p.Writes,
		}
		if p.Vote {
			g.block(p.Txn, p.Keys, p.Writes)
		}
	}
}

// decisionReplayed reports whether p's decision already reached the store
// through WAL replay above the checkpoint (any written key advanced past
// the prepare index — impossible while the footprint is blocked).
func (g *shardGroup) decisionReplayed(p message.PreparedShard) bool {
	for _, w := range p.Writes {
		if rec, ok := g.store.Get(w.Key); ok && rec.Index > p.Index {
			return true
		}
	}
	return false
}

// recordDecided remembers one ordered decision's outcome, evicting the
// oldest entry beyond the retention bound.
func (g *shardGroup) recordDecided(txn message.TxnID, commit bool) {
	if _, have := g.decided[txn]; have {
		return
	}
	g.decided[txn] = commit
	g.decidedOrder = append(g.decidedOrder, txn)
	if len(g.decidedOrder) > decidedRetention {
		evict := g.decidedOrder[0]
		g.decidedOrder = g.decidedOrder[1:]
		delete(g.decided, evict)
	}
}

// exportShard snapshots this group's cross-shard certification state for
// state transfers and checkpoints, deterministically ordered.
func (g *shardGroup) exportShard() *message.ShardRecovery {
	sr := &message.ShardRecovery{Prepared: g.exportPrepared()}
	for _, txn := range g.decidedOrder {
		if commit, ok := g.decided[txn]; ok {
			sr.Decided = append(sr.Decided, message.DecidedShard{Txn: txn, Commit: commit})
		}
	}
	sr.Fenced = make([]message.TxnID, 0, len(g.fenced))
	for txn := range g.fenced {
		sr.Fenced = append(sr.Fenced, txn)
	}
	sort.Slice(sr.Fenced, func(i, j int) bool { return sr.Fenced[i].Less(sr.Fenced[j]) })
	return sr
}

// onOrderedPrepare certifies one cross-shard sub-writeset at its prepare
// index, blocks its footprint until the decision, and votes.
func (g *shardGroup) onOrderedPrepare(idx uint64, p *message.ShardPrepare) {
	g.certIndex = idx
	e := g.eng
	if _, done := g.decided[p.Txn]; done {
		// The round already closed in this group (a successor terminated it
		// while this prepare was in flight); the decision said everything.
		return
	}
	if g.fenced[p.Txn] {
		// A termination query was ordered ahead of this prepare: the group
		// answered "not prepared", so the successor's decision is abort.
		// Refuse the prepare — vote no, hold nothing — to keep that answer
		// truthful at every member.
		e.tr.Point(p.Txn, trace.KindShardCert, idx, message.SiteID(g.id), 0)
		e.rt.Send(p.Coord, &message.ShardVote{Txn: p.Txn, Group: g.id, By: e.rt.ID(), Yes: false})
		return
	}
	vote := g.certify(p.Reads, nil, p.WriteKV)
	e.tr.Point(p.Txn, trace.KindShardCert, idx, message.SiteID(g.id), boolExtra(vote))
	sub := &preparedSub{idx: idx, vote: vote, coord: p.Coord, groups: p.Groups, writes: p.WriteKV}
	seen := make(map[message.Key]bool, len(p.Reads)+len(p.WriteKV))
	for _, r := range p.Reads {
		if !seen[r.Key] {
			seen[r.Key] = true
			sub.keys = append(sub.keys, r.Key)
		}
	}
	for _, w := range p.WriteKV {
		if !seen[w.Key] {
			seen[w.Key] = true
			sub.keys = append(sub.keys, w.Key)
		}
	}
	if vote {
		g.block(p.Txn, sub.keys, p.WriteKV)
	}
	g.prepared[p.Txn] = sub
	// Every member votes (self included, through the normal send path so
	// processing is never re-entrant); verdicts are deterministic, so the
	// coordinator counts the first per group.
	g.eng.rt.Send(p.Coord, &message.ShardVote{Txn: p.Txn, Group: g.id, By: e.rt.ID(), Yes: vote})
}

// onOrderedDecision closes a cross-shard round in this group at the
// decision's own order index: unblock the footprint, and install the
// writes there on commit.
func (g *shardGroup) onOrderedDecision(idx uint64, d *message.ShardDecision) {
	g.certIndex = idx
	e := g.eng
	if _, done := g.decided[d.Txn]; done {
		// Duplicate: the coordinator and a successor (or two successors)
		// each closed the round. They provably agree, and the first ordered
		// decision did all the work — skip entirely.
		return
	}
	g.recordDecided(d.Txn, d.Commit)
	delete(g.fenced, d.Txn)
	delete(e.term, d.Txn)
	sub := g.prepared[d.Txn]
	delete(g.prepared, d.Txn)
	if sub != nil && sub.vote {
		g.unblock(d.Txn, sub.keys)
	}
	e.tr.Point(d.Txn, trace.KindShardDecide, idx, message.SiteID(g.id), boolExtra(d.Commit))
	if !d.Commit || sub == nil {
		if sub == nil && d.Commit {
			e.rt.Logf("sharded: group %v commit decision for unknown prepare %v", g.id, d.Txn)
		}
		g.ackDecision(d.Txn, sub, d.Commit)
		return
	}
	g.submitOne(d.Txn, idx, sub.writes, true, func(bool) { g.ackDecision(d.Txn, sub, true) })
}

// ackDecision reports this group's durable processing of a cross-shard
// decision to the coordinator: directly when the coordinator runs at this
// site, and — when it replicates no member of this group — via the group
// leader's ShardOutcome unicast, so the coordinator never acks the client
// before every touched group is durable.
func (g *shardGroup) ackDecision(txn message.TxnID, sub *preparedSub, commit bool) {
	e := g.eng
	e.onGroupDecided(txn, g.id, commit)
	coord := txn.Site // the coordinator is the home site; sub is authoritative
	if sub != nil {
		coord = sub.coord
	}
	if g.reportsFor(coord) {
		e.rt.Send(coord, &message.ShardOutcome{Txn: txn, Group: g.id, Commit: commit})
	}
}

// block registers txn as a holder of each footprint key; keys in writes
// also count as write-holds, which block concurrent reads.
func (g *shardGroup) block(txn message.TxnID, keys []message.Key, writes []message.KV) {
	wr := make(map[message.Key]bool, len(writes))
	for _, w := range writes {
		wr[w.Key] = true
	}
	for _, k := range keys {
		bs := g.blocked[k]
		if bs == nil {
			bs = &blockSet{held: make(map[message.TxnID]bool, 1)}
			g.blocked[k] = bs
		}
		if _, dup := bs.held[txn]; dup {
			continue
		}
		bs.held[txn] = wr[k]
		if wr[k] {
			bs.wrote++
		}
	}
}

// unblock releases txn's hold on each key; the key stays blocked while
// any other undecided prepare still holds it.
func (g *shardGroup) unblock(txn message.TxnID, keys []message.Key) {
	for _, k := range keys {
		bs := g.blocked[k]
		if bs == nil {
			continue
		}
		wrote, held := bs.held[txn]
		if !held {
			continue
		}
		delete(bs.held, txn)
		if wrote {
			bs.wrote--
		}
		if len(bs.held) == 0 {
			delete(g.blocked, k)
		}
	}
}

// onGroupDecided runs after this site durably processed one touched
// group's decision; only the coordinator tracks the round.
func (e *ShardedEngine) onGroupDecided(txn message.TxnID, gid message.GroupID, commit bool) {
	cs := e.coord[txn]
	if cs == nil {
		return
	}
	if !cs.decided {
		// The round was closed externally — a successor (or this site's own
		// termination of a stuck round) decided it before the votes came
		// back. Ordered decisions for one transaction provably agree, so
		// adopting the outcome is always safe; without it a coordinator cut
		// off mid-round would wait for votes that can never arrive.
		cs.decided, cs.outcome = true, commit
		cs.acked = make(map[message.GroupID]bool, len(cs.groups))
	}
	e.groupAcked(txn, cs, gid)
}

// groupAcked marks one touched group's decision durable at the
// coordinator and finishes the transaction once every group reported.
func (e *ShardedEngine) groupAcked(txn message.TxnID, cs *coordState, gid message.GroupID) {
	if cs.acked[gid] {
		return
	}
	cs.acked[gid] = true
	if len(cs.acked) < len(cs.groups) {
		return
	}
	delete(e.coord, txn)
	e.finishCoord(txn, cs.outcome)
}

func (e *ShardedEngine) finishCoord(txn message.TxnID, commit bool) {
	if tx := e.local[txn]; tx != nil {
		e.finishCertified(tx, commit)
	}
}

// onVote tallies one group's verdict at the coordinator. Verdicts are
// deterministic across a group's replicas, so the first per group decides
// its entry; once every touched group has reported, the round closes with
// a per-group decision broadcast: commit iff all voted yes. The client
// ack waits for every group's durable decision (onGroupDecided locally,
// ShardOutcome from remote group leaders).
func (e *ShardedEngine) onVote(v *message.ShardVote) {
	cs := e.coord[v.Txn]
	if cs == nil || cs.decided {
		return
	}
	if _, have := cs.votes[v.Group]; !have {
		cs.votes[v.Group] = v.Yes
	}
	if len(cs.votes) < len(cs.groups) {
		return
	}
	commit := true
	for _, gid := range cs.groups {
		if !cs.votes[gid] {
			commit = false
		}
	}
	cs.decided = true
	cs.outcome = commit
	cs.acked = make(map[message.GroupID]bool, len(cs.groups))
	for _, gid := range cs.groups {
		e.sendToGroup(gid, &message.ShardDecision{Txn: v.Txn, Group: gid, Commit: commit})
	}
}

// onOutcome resolves a commit this site could not observe locally: a
// cross-shard group ack from a remote group's leader when a coordinated
// round is in flight, else a single-group commit routed through a group
// this site does not replicate.
func (e *ShardedEngine) onOutcome(o *message.ShardOutcome) {
	if cs := e.coord[o.Txn]; cs != nil {
		if !cs.decided {
			// Externally decided (see onGroupDecided): adopt the outcome.
			cs.decided, cs.outcome = true, o.Commit
			cs.acked = make(map[message.GroupID]bool, len(cs.groups))
		}
		e.groupAcked(o.Txn, cs, o.Group)
		return
	}
	if tx := e.local[o.Txn]; tx != nil && tx.state == txCommitWait {
		e.finishCertified(tx, o.Commit)
	}
}

// exportPrepared snapshots the certified-undecided prepare set, sorted by
// prepare index so the export is deterministic.
func (g *shardGroup) exportPrepared() []message.PreparedShard {
	out := make([]message.PreparedShard, 0, len(g.prepared))
	for id, sub := range g.prepared {
		out = append(out, message.PreparedShard{
			Txn: id, Index: sub.idx, Vote: sub.vote, Coord: sub.coord,
			Groups: sub.groups, Keys: sub.keys, Writes: sub.writes,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Txn.Less(out[j].Txn) // total order even on (impossible) index ties
	})
	return out
}
