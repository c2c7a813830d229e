package broadcast

import (
	"sort"

	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
)

// batchMaxBytes seals an open batch early once its payload envelopes'
// encoded size reaches it.
const batchMaxBytes = 64 << 10

// batchState is the leader orderer behind both leader-based total-order
// modes, in the style of Ring Paxos: a leader that pipelines consensus
// instances and orders whole batches of messages per instance. AtomicBatch
// runs it with an accumulation window and a message budget; AtomicSequencer
// runs it with a budget of one message, so every arrival seals its own
// instance at once — which is exactly a fixed sequencer.
//
// Every atomic broadcast's payload already reaches every site directly (the
// origin unicasts the envelope to all peers), so the leader — the lowest
// member of the current view — never needs the payloads forwarded to it. It
// accumulates the unordered arrivals into an open batch, seals the batch when
// a window timer fires or a message/byte budget is hit, assigns the batch one
// contiguous range of total-order indices, and announces the whole range in
// a single SeqOrder message. Receivers record the entries through the
// idempotent recordOrder path and deliver contiguously, so gap repair
// (Gap/Retransmit/SkipTo) and state transfer work unchanged.
//
// Instances pipeline naturally: the leader seals instance k+1 without
// waiting for any acknowledgement of instance k — agreement comes from the
// leader's uniqueness within the primary partition. On a view change that
// elects a new leader, the new leader immediately re-orders everything
// buffered-but-unordered (sorted by origin, then sequence, for a
// deterministic handoff order) above the highest index it has heard of,
// sealing as the budgets dictate.
type batchState struct {
	s *Stack

	// open is the accumulating batch (leader only), in arrival order.
	open      []pair
	openBytes int    // encoded size of the open batch's payload envelopes
	wire      []byte // scratch for measuring one

	timerSet bool
	timer    env.TimerID

	// next is the next total-order index this site assigns as leader.
	next uint64
}

func newBatchState(s *Stack) *batchState {
	return &batchState{s: s}
}

// leader reports whether this site currently orders batches.
func (bs *batchState) leader() bool { return bs.s.Sequencer() == bs.s.rt.ID() }

// accept runs when an atomic payload arrives (including the origin's own);
// the envelope is already buffered in s.apayload.
func (bs *batchState) accept(b *message.Bcast) {
	if bs.leader() {
		bs.enqueue(pair{b.Origin, b.Seq})
		if len(bs.open) > 0 && !bs.timerSet {
			bs.timerSet = true
			bs.timer = bs.s.rt.SetTimer(bs.s.cfg.BatchWindow, bs.onWindow)
		}
	}
	// A non-leader may already hold the order (the announcement outran the
	// payload); a leader delivers what its seal ordered.
	bs.s.drainAtomic()
}

// enqueue adds one unordered pair to the open batch and seals when a budget
// trips. The message budget is checked first, so a one-message budget never
// encodes a payload just to measure it.
func (bs *batchState) enqueue(p pair) {
	if _, done := bs.s.aindexed[p]; done {
		return // already ordered (e.g. retransmission or leader change)
	}
	b, ok := bs.s.apayload[p]
	if !ok {
		return
	}
	bs.open = append(bs.open, p)
	if len(bs.open) >= bs.s.cfg.BatchMaxMsgs {
		bs.seal()
		return
	}
	bs.wire = message.AppendMessage(bs.wire[:0], b)
	if bs.openBytes += len(bs.wire); bs.openBytes >= batchMaxBytes {
		bs.seal()
	}
}

// onWindow fires when an open batch's accumulation window expires.
func (bs *batchState) onWindow() {
	bs.timerSet = false
	if !bs.leader() {
		// Deposed while the window ran: the new leader re-collects these
		// pairs from its own payload buffer (onViewChange), so just drop
		// the stale accumulation.
		bs.reset()
		return
	}
	if len(bs.open) > 0 {
		bs.seal()
		bs.s.drainAtomic()
	}
}

// seal closes the open batch: one contiguous index range, one announcement.
// The caller drains.
func (bs *batchState) seal() {
	if bs.timerSet {
		bs.s.rt.CancelTimer(bs.timer)
		bs.timerSet = false
	}
	s := bs.s
	// Filter out pairs another instance (or a prior leader) already
	// ordered; the budget counters reset regardless.
	batch := bs.open[:0]
	for _, p := range bs.open {
		if _, done := s.aindexed[p]; done {
			continue
		}
		if _, ok := s.apayload[p]; !ok {
			continue
		}
		batch = append(batch, p)
	}
	if len(batch) == 0 {
		bs.reset()
		return
	}
	// The range starts above everything delivered or heard of, so a new
	// leader never reuses indices.
	if bs.next <= s.ahighSeen {
		bs.next = s.ahighSeen + 1
	}
	if bs.next < s.anext {
		bs.next = s.anext
	}
	ord := message.NewSeqOrder(s.rt.ID(), len(batch))
	for _, p := range batch {
		e := message.OrderEntry{Origin: p.origin, Seq: p.seq, Index: bs.next}
		bs.next++
		s.cfg.Tracer.Point(s.apayload[p].Trace, trace.KindSeqOrder, e.Index, p.origin, 0)
		s.recordOrder(e)
		ord.Entries = append(ord.Entries, e)
	}
	for _, peer := range s.rt.Peers() {
		if peer == s.rt.ID() {
			continue
		}
		s.rt.Send(peer, ord)
	}
	bs.reset()
}

// reset clears the open batch accumulation.
func (bs *batchState) reset() {
	bs.open = bs.open[:0]
	bs.openBytes = 0
}

// onViewChange re-drives ordering after a membership change: a newly
// elected leader takes over every buffered-but-unordered message at once,
// sealing every announcement before the one drain; a deposed leader drops
// its accumulation.
func (bs *batchState) onViewChange() {
	if bs.timerSet {
		bs.s.rt.CancelTimer(bs.timer)
		bs.timerSet = false
	}
	bs.reset()
	if !bs.leader() {
		return
	}
	pending := make([]pair, 0, len(bs.s.apayload))
	for p := range bs.s.apayload {
		if _, done := bs.s.aindexed[p]; !done {
			pending = append(pending, p)
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].origin != pending[j].origin {
			return pending[i].origin < pending[j].origin
		}
		return pending[i].seq < pending[j].seq
	})
	for _, p := range pending {
		bs.enqueue(p)
	}
	if len(bs.open) > 0 {
		bs.seal()
	}
	bs.s.drainAtomic()
}
