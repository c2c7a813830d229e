package core

import (
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/trace"
)

// Coordinator failover: the termination protocol (after Sutra & Shapiro's
// fault-tolerant certification and the decentralised commitment shape of
// Sutra et al.). When a prepare's coordinator is suspected, the lowest
// live member of the prepare's group becomes its successor: it sends a
// CoordQuery through every touched group's total order, combines the
// deterministic per-group answers into the same AND decision the
// coordinator would have reached, and closes the round with idempotent
// ShardDecision broadcasts. Concurrent successors — or a resurrected
// coordinator — provably reach the same outcome, and duplicate decisions
// are skipped at ordering time.

// termState tracks one termination round this site runs as successor for
// an orphaned prepare: one deterministic CoordStatus per touched group.
type termState struct {
	groups []message.GroupID // touched groups, ascending
	status map[message.GroupID]*message.CoordStatus
}

// rescanInterval paces the periodic orphan sweep: one detector timeout, so
// a termination stalled by message loss or a partition retries as soon as
// the suspicion evidence could have changed.
func (e *ShardedEngine) rescanInterval() time.Duration { return e.det.Timeout() }

// orphanTick periodically re-runs the orphan sweep and retries the
// idempotent traffic of still-open rounds; re-sent votes, queries, and
// re-broadcast decisions are deduplicated by the first-per-group tallies
// and the ordered fence/decided machinery, so retries are always safe.
func (e *ShardedEngine) orphanTick() {
	defer e.rt.SetTimer(e.rescanInterval(), e.orphanTick)
	e.scanOrphans()
	e.resendPending()
}

// onOrderedQuery answers a termination status probe at its order index.
// The answer is a deterministic function of the group's ordered prefix:
// an ordered decision wins, then an ordered prepare's vote; otherwise the
// transaction is fenced so no later-ordered prepare can contradict the
// "not prepared" reply.
func (g *shardGroup) onOrderedQuery(idx uint64, q *message.CoordQuery) {
	g.certIndex = idx
	e := g.eng
	st := &message.CoordStatus{Txn: q.Txn, Group: g.id, By: e.rt.ID()}
	if outcome, done := g.decided[q.Txn]; done {
		st.Decided, st.Outcome = true, outcome
	} else if sub := g.prepared[q.Txn]; sub != nil {
		st.Prepared, st.Vote = true, sub.vote
	} else {
		g.fenced[q.Txn] = true
	}
	e.rt.Send(q.From, st)
}

// scanOrphans hunts prepares whose coordinator cannot decide them: the
// coordinator is suspected, or it is this freshly restarted site itself
// with no surviving coordination record. For each orphan whose successor
// this site is, it (re)runs the termination round; the sweep is re-entered
// on every new suspicion and on a periodic timer, so lost queries and
// partitioned groups retry until the round closes.
func (e *ShardedEngine) scanOrphans() {
	// Drop stale termination state first (rounds closed by a decision, or
	// whose coordinator turned out alive) — but keep rounds this site still
	// coordinates undecided: those are its own stuck rounds being
	// self-terminated, and their collected statuses must survive the sweep.
	for txn := range e.term {
		if !e.orphaned(txn) && !e.coordOpen(txn) {
			delete(e.term, txn)
		}
	}
	for _, gid := range e.homeGroups {
		g := e.groups[gid]
		// Deterministic sweep order keeps seeded runs reproducible.
		orphans := make([]message.TxnID, 0, len(g.prepared))
		for txn, sub := range g.prepared {
			if e.coordDead(txn, sub.coord) && e.successor(gid) == e.rt.ID() {
				orphans = append(orphans, txn)
			}
		}
		sort.Slice(orphans, func(i, j int) bool { return orphans[i].Less(orphans[j]) })
		for _, txn := range orphans {
			e.terminate(txn, g.prepared[txn].groups)
		}
	}
}

// coordOpen reports whether this site coordinates a still-undecided round
// for txn.
func (e *ShardedEngine) coordOpen(txn message.TxnID) bool {
	cs := e.coord[txn]
	return cs != nil && !cs.decided
}

// resendPending retries the idempotent messages of still-open cross-shard
// rounds, so rounds survive traffic lost to partitions or crashes and
// resolve after a heal without any site restarting. Member side: a prepared
// transaction whose coordinator looks alive re-sends its vote (the
// coordinator counts the first verdict per group, so duplicates are
// no-ops). Coordinator side: a decided round re-broadcasts its decision to
// every group whose durable ack is missing, and an undecided round older
// than two sweep intervals is handed to the termination protocol — the
// coordinator queries its own touched groups exactly as a successor would,
// reaching a decision even when its original prepares were swallowed by a
// partition.
func (e *ShardedEngine) resendPending() {
	for _, gid := range e.homeGroups {
		g := e.groups[gid]
		pending := make([]message.TxnID, 0, len(g.prepared))
		for txn, sub := range g.prepared {
			if sub.coord != e.rt.ID() && !e.det.Suspects(sub.coord) {
				pending = append(pending, txn)
			}
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i].Less(pending[j]) })
		for _, txn := range pending {
			sub := g.prepared[txn]
			e.rt.Send(sub.coord, &message.ShardVote{Txn: txn, Group: gid, By: e.rt.ID(), Yes: sub.vote})
		}
	}
	open := make([]message.TxnID, 0, len(e.coord))
	for txn := range e.coord {
		open = append(open, txn)
	}
	sort.Slice(open, func(i, j int) bool { return open[i].Less(open[j]) })
	patience := 2 * e.rescanInterval()
	for _, txn := range open {
		cs := e.coord[txn]
		if cs.decided {
			for _, gid := range cs.groups {
				if !cs.acked[gid] {
					e.sendToGroupLive(gid, &message.ShardDecision{Txn: txn, Group: gid, Commit: cs.outcome})
				}
			}
			continue
		}
		if e.rt.Now()-cs.since < patience {
			continue
		}
		e.terminate(txn, cs.groups)
	}
}

// orphaned reports whether txn still has a local prepare whose coordinator
// cannot decide it.
func (e *ShardedEngine) orphaned(txn message.TxnID) bool {
	for _, gid := range e.homeGroups {
		if sub := e.groups[gid].prepared[txn]; sub != nil && e.coordDead(txn, sub.coord) {
			return true
		}
	}
	return false
}

// coordDead reports whether coord can no longer decide txn: it is
// suspected, or it is this site itself after a restart that lost the
// coordination record (the prepare was resurrected from a checkpoint).
func (e *ShardedEngine) coordDead(txn message.TxnID, coord message.SiteID) bool {
	if coord == e.rt.ID() {
		return e.coord[txn] == nil
	}
	return e.det.Suspects(coord)
}

// successor picks who terminates orphans of group gid: its lowest member
// not currently suspected. Divergent suspicion views may elect several
// successors at once; their rounds are idempotent and reach the same
// decision, so the overlap is harmless.
func (e *ShardedEngine) successor(gid message.GroupID) message.SiteID {
	for _, m := range e.ring.Members(gid) {
		if !e.det.Suspects(m) {
			return m
		}
	}
	return e.rt.ID()
}

// terminate (re)runs one termination round over the given touched groups:
// query every group whose status is still missing, and re-close the round
// if the statuses are already complete but a decision broadcast may have
// been lost. It serves both a successor terminating an orphan and a live
// coordinator terminating its own stuck round.
func (e *ShardedEngine) terminate(txn message.TxnID, groups []message.GroupID) {
	ts := e.term[txn]
	if ts == nil {
		if len(groups) == 0 {
			// A prepare recovered from a pre-failover checkpoint carries no
			// footprint list; without it no termination round can be run.
			e.rt.Logf("sharded: orphan %v has no group footprint, cannot terminate", txn)
			return
		}
		ts = &termState{groups: groups, status: make(map[message.GroupID]*message.CoordStatus, len(groups))}
		e.term[txn] = ts
		e.tr.Point(txn, trace.KindShardTakeover, groupMask(ts.groups), e.rt.ID(), int64(len(ts.groups)))
	}
	if len(ts.status) == len(ts.groups) {
		e.closeTermination(txn, ts)
		return
	}
	for _, gid := range ts.groups {
		if ts.status[gid] == nil {
			e.sendToGroupLive(gid, &message.CoordQuery{Txn: txn, Group: gid, From: e.rt.ID()})
		}
	}
}

// onCoordStatus tallies one group's termination answer. Answers are
// deterministic per group, so the first per group decides its entry; the
// round closes once every touched group has reported.
func (e *ShardedEngine) onCoordStatus(st *message.CoordStatus) {
	ts := e.term[st.Txn]
	if ts == nil {
		return
	}
	if ts.status[st.Group] == nil {
		ts.status[st.Group] = st
	}
	if len(ts.status) == len(ts.groups) {
		e.closeTermination(st.Txn, ts)
	}
}

// closeTermination reaches the round's decision from complete statuses and
// broadcasts it to every touched group. An already-ordered decision wins
// outright; otherwise the coordinator's AND rule is replayed over the
// collected votes, with "not prepared" (a fence) counting as no. The
// result provably matches any decision the original coordinator reached:
// commit requires yes votes from all groups, which requires every prepare
// ordered ahead of any fence.
func (e *ShardedEngine) closeTermination(txn message.TxnID, ts *termState) {
	commit := true
	decided := false
	for _, gid := range ts.groups {
		if st := ts.status[gid]; st.Decided {
			commit, decided = st.Outcome, true
			break
		}
	}
	if !decided {
		for _, gid := range ts.groups {
			if st := ts.status[gid]; !st.Prepared || !st.Vote {
				commit = false
				break
			}
		}
	}
	for _, gid := range ts.groups {
		e.sendToGroupLive(gid, &message.ShardDecision{Txn: txn, Group: gid, Commit: commit})
	}
}

// sendToGroupLive is sendToGroup with failover routing: a payload for a
// remote group goes to that group's lowest non-suspected member instead of
// blindly to its leader, so termination traffic survives a dead leader.
func (e *ShardedEngine) sendToGroupLive(gid message.GroupID, payload message.Message) {
	if g := e.groups[gid]; g != nil {
		g.stack.Broadcast(message.ClassAtomic, payload)
		return
	}
	to := e.ring.Leader(gid)
	if e.det != nil {
		for _, m := range e.ring.Members(gid) {
			if !e.det.Suspects(m) {
				to = m
				break
			}
		}
	}
	e.rt.Send(to, &message.ShardForward{Group: gid, Req: payload})
}
