// Package broadcast implements the four broadcast primitives the paper's
// replication protocols are built on:
//
//   - reliable broadcast — validity, agreement, integrity; no ordering
//     across senders (optionally with eager relay to mask sender failure
//     and message loss),
//   - causal broadcast — delivery respects potential causality, and the
//     vector clocks are exposed to the application (the causal replication
//     protocol mines them for implicit acknowledgements),
//   - atomic (total-order) broadcast — all sites deliver in one global
//     order; two implementations are provided, an ISIS-style
//     agreed-timestamp protocol and a leader orderer that pipelines
//     batches of messages (orderer_batch.go). The fixed sequencer is the
//     leader orderer with a one-message budget.
//
// The stack is a deterministic state machine: it never blocks, never spawns
// goroutines, and produces deliveries through a callback.
package broadcast

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Delivery is one message handed up to the application in class order.
type Delivery struct {
	Class   message.Class
	Origin  message.SiteID
	Seq     uint64 // per-origin sequence number within the class
	VC      vclock.VC
	Index   uint64 // total-order index; atomic class only
	Payload message.Message
	// Trace is the transaction the payload belongs to, copied from the
	// envelope (zero for non-transactional traffic).
	Trace message.TxnID
}

// AtomicMode selects the total-order broadcast implementation.
type AtomicMode int

// The available atomic broadcast implementations.
const (
	// AtomicSequencer routes ordering through a fixed sequencer (the lowest
	// site in the current view): one extra message hop per broadcast. It is
	// the AtomicBatch orderer with a budget of one message per batch.
	AtomicSequencer AtomicMode = iota + 1
	// AtomicIsis uses the ISIS agreed-timestamp protocol: every receiver
	// proposes a Lamport timestamp, the origin fixes the maximum.
	AtomicIsis
	// AtomicBatch routes ordering through a leader (the lowest site in the
	// current view, like the fixed sequencer) that pipelines consensus
	// instances: instead of announcing one index per message it accumulates
	// arrivals for a configurable window / size budget and assigns each
	// batch one contiguous index range in a single SeqOrder announcement,
	// amortizing ordering traffic across the batch (see orderer_batch.go).
	AtomicBatch
)

// Config parameterizes a Stack.
type Config struct {
	// Deliver receives messages in delivery order. Required.
	Deliver func(Delivery)
	// Relay enables eager relaying: the first time a site receives a
	// broadcast it forwards a copy to all other sites, masking origin
	// failure mid-broadcast and independent message loss.
	Relay bool
	// Atomic selects the total-order implementation. Defaults to
	// AtomicSequencer.
	Atomic AtomicMode
	// Members returns the current view membership. The sequencer identity
	// and the ISIS proposal quorum follow it. Defaults to all peers.
	Members func() []message.SiteID
	// Tracer, when non-nil, records the primitive's internal rounds
	// (send/deliver, causal holds, sequencer and ISIS ordering) as spans.
	Tracer *trace.Tracer

	// BatchWindow bounds how long the batch orderer's leader holds an open
	// batch before sealing it (AtomicBatch only). Defaults to 1ms.
	BatchWindow time.Duration
	// BatchMaxMsgs seals an open batch early once it holds this many
	// messages (AtomicBatch only; AtomicSequencer fixes it at 1). Defaults
	// to 64.
	BatchMaxMsgs int
	// HistoryRetention caps the delivered-atomic-broadcast retransmission
	// history (Stack.HistoryRetention); 0 keeps the 8192 default. Small
	// values force retention misses onto the state-transfer path, which
	// the checkpoint/rejoin experiments exercise deliberately.
	HistoryRetention int
}

// Stack is one site's broadcast endpoint.
type Stack struct {
	rt  env.Runtime
	cfg Config

	// classes holds each broadcast class's sequence state, indexed by
	// message.Class: this site's send counter and one dedup window per
	// origin heard from.
	classes [message.ClassAtomic + 1]classSeqs
	// window is how many sequence numbers below its top an origin's dedup
	// window tracks (a multiple of 64).
	window uint64

	// Causal: delivered-count vector and pending queue.
	cvc   vclock.VC
	cpend []heldBcast

	// Atomic, shared: buffered payloads and the assigned global order.
	apayload  map[pair]*message.Bcast
	aorder    map[uint64]pair // index -> message
	aindexed  map[pair]uint64 // message -> index (leader modes)
	anext     uint64          // next index to deliver
	ahighSeen uint64          // highest index heard of (for leader failover)

	// history retains recently delivered atomic broadcasts by index so any
	// site can serve retransmissions to a resynchronizing peer.
	history     map[uint64]*message.Bcast
	historyLow  uint64 // lowest retained index
	historyHigh uint64 // highest delivered index

	// Atomic, ISIS mode.
	isis *isisState

	// Atomic, sequencer and batch modes.
	batch *batchState

	// Deliveries counts per-class deliveries, a cheap local metric.
	Deliveries map[message.Class]int64

	// HistoryRetention caps how many delivered atomic broadcasts are kept
	// for retransmission (default 8192; 0 disables retention).
	HistoryRetention int
}

// classSeqs is one broadcast class's sequence state at this site.
type classSeqs struct {
	sendSeq uint64
	origins []originSeqs
}

// originSeqs is what one site knows of an origin's sequence numbers in one
// class. It enforces reliable broadcast's integrity (deliver at most once)
// with the anti-replay window of RFC 4303 §3.4.3 / RFC 6479: top is the
// highest sequence number received and seen flags the ones received in
// (top-W, top], at bit seq mod W. A number above top is new and slides the
// window up; one inside it is new if its bit is clear; one W or more below
// top is taken as already seen, the only decision that differs from
// remembering every number ever received. high is the highest number
// noted, duplicates and state transfers included: exported in
// StackSync.HighSeq so a restarted origin resumes its numbering instead of
// reusing numbers its peers will discard. ImportSync may raise it without
// moving the window, so the undelivered messages a transfer replays are
// still accepted.
type originSeqs struct {
	origin message.SiteID
	top    uint64
	high   uint64
	seen   []uint64
}

type pair struct {
	origin message.SiteID
	seq    uint64
}

// heldBcast is a buffered undeliverable broadcast plus when it arrived
// (tracer clock), so hold durations can be reported as spans. waited marks
// messages that failed their delivery condition on arrival; only those emit
// hold spans.
type heldBcast struct {
	b      *message.Bcast
	at     time.Duration
	waited bool
}

// New creates a broadcast stack on rt.
func New(rt env.Runtime, cfg Config) *Stack {
	if cfg.Deliver == nil {
		panic("broadcast: Config.Deliver is required")
	}
	if cfg.Atomic == 0 {
		cfg.Atomic = AtomicSequencer
	}
	if cfg.Members == nil {
		cfg.Members = rt.Peers
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = time.Millisecond
	}
	if cfg.BatchMaxMsgs <= 0 {
		cfg.BatchMaxMsgs = 64
	}
	if cfg.Atomic == AtomicSequencer {
		cfg.BatchMaxMsgs = 1
	}
	n := len(rt.Peers())
	s := &Stack{
		rt:         rt,
		cfg:        cfg,
		cvc:        vclock.New(n),
		apayload:   make(map[pair]*message.Bcast),
		aorder:     make(map[uint64]pair),
		aindexed:   make(map[pair]uint64),
		anext:      1,
		history:    make(map[uint64]*message.Bcast),
		historyLow: 1,
		Deliveries: make(map[message.Class]int64),

		HistoryRetention: 8192,
	}
	if cfg.HistoryRetention > 0 {
		s.HistoryRetention = cfg.HistoryRetention
	}
	// The dedup window spans at least the retransmission history, so a
	// resent message is judged by its bit, not by distance.
	s.window = uint64(max(8192, s.HistoryRetention)+63) &^ 63
	s.isis = newIsisState(s)
	s.batch = newBatchState(s)
	return s
}

// Sequencer returns the site currently responsible for assigning the total
// order: the lowest member of the current view.
func (s *Stack) Sequencer() message.SiteID {
	members := s.cfg.Members()
	if len(members) == 0 {
		return s.rt.ID()
	}
	low := members[0]
	for _, m := range members[1:] {
		if m < low {
			low = m
		}
	}
	return low
}

// Broadcast sends payload to every site (including this one) with the
// delivery guarantees of class. It returns the per-origin sequence number
// assigned to the message, which the causal replication protocol uses to
// match implicit acknowledgements.
func (s *Stack) Broadcast(class message.Class, payload message.Message) uint64 {
	c := &s.classes[class]
	c.sendSeq++
	seq := c.sendSeq
	b := &message.Bcast{Class: class, Origin: s.rt.ID(), Seq: seq, Payload: payload}
	if id, ok := message.TxnOf(payload); ok {
		b.Trace = id
	}
	s.cfg.Tracer.Point(b.Trace, trace.KindBcastSend, seq, s.rt.ID(), int64(class))
	s.originSeqs(c, b.Origin).admit(seq)
	if class == message.ClassCausal {
		// Stamp with the sender's causal history: entries for peers reflect
		// deliveries, the own entry is the send sequence number.
		vc := s.cvc.Clone()
		vc = vc.Set(int(s.rt.ID()), seq)
		b.VC = vc
	}
	for _, p := range s.rt.Peers() {
		if p == s.rt.ID() {
			continue
		}
		s.rt.Send(p, b)
	}
	switch class {
	case message.ClassAtomic:
		s.acceptAtomic(b)
	default:
		// Local delivery is immediate: the origin's own message trivially
		// satisfies reliable and causal delivery conditions.
		s.deliverLocal(b)
	}
	return seq
}

// Handle processes one broadcast-layer message from the network. The node's
// router calls it for Bcast, SeqOrder, IsisPropose, and IsisFinal messages.
func (s *Stack) Handle(from message.SiteID, m message.Message) {
	switch t := m.(type) {
	case *message.Bcast:
		s.handleBcast(from, t)
	case *message.SeqOrder:
		s.handleSeqOrder(t)
	case *message.IsisPropose:
		s.isis.handlePropose(t)
	case *message.IsisFinal:
		s.isis.handleFinal(t)
	default:
		s.rt.Logf("broadcast: unexpected message %v from %v", m.Kind(), from)
	}
}

// Handles reports whether the stack is responsible for m.
func Handles(m message.Message) bool {
	switch m.Kind() {
	case message.KindBcast, message.KindSeqOrder, message.KindIsisPropose, message.KindIsisFinal:
		return true
	default:
		return false
	}
}

func (s *Stack) handleBcast(from message.SiteID, b *message.Bcast) {
	if !knownClass(b.Class) {
		s.rt.Logf("broadcast: unknown class %v", b.Class)
		return
	}
	if !s.originSeqs(&s.classes[b.Class], b.Origin).admit(b.Seq) {
		return
	}
	if s.cfg.Relay && !b.Relayed {
		relay := *b
		relay.Relayed = true
		for _, p := range s.rt.Peers() {
			if p == s.rt.ID() || p == b.Origin || p == from {
				continue
			}
			s.rt.Send(p, &relay)
		}
	}
	switch b.Class {
	case message.ClassReliable:
		s.deliver(Delivery{Class: b.Class, Origin: b.Origin, Seq: b.Seq, Payload: b.Payload, Trace: b.Trace})
	case message.ClassCausal:
		s.acceptCausal(b)
	case message.ClassAtomic:
		s.acceptAtomic(b)
	}
}

// knownClass reports whether the stack implements class c. Class 2, the
// retired FIFO class, stays reserved on the wire and is dropped like any
// unknown class.
func knownClass(c message.Class) bool {
	return c == message.ClassReliable || c == message.ClassCausal || c == message.ClassAtomic
}

// originSeqs returns class c's sequence state for origin, creating it on
// first contact: a linear scan, as a class hears from a handful of sites.
func (s *Stack) originSeqs(c *classSeqs, origin message.SiteID) *originSeqs {
	for i := range c.origins {
		if c.origins[i].origin == origin {
			return &c.origins[i]
		}
	}
	c.origins = append(c.origins, originSeqs{origin: origin, seen: make([]uint64, s.window/64)})
	return &c.origins[len(c.origins)-1]
}

// admit notes seq and reports whether it is new, marking it seen. It runs
// once per broadcast sent or received and allocates nothing;
// TestHandleBcastAllocs pins the path around it.
//
// reprolint:noalloc
func (o *originSeqs) admit(seq uint64) bool {
	if seq > o.high {
		o.high = seq
	}
	w := uint64(len(o.seen)) * 64
	switch {
	case seq > o.top:
		if seq-o.top >= w {
			clear(o.seen)
		} else {
			for n := o.top + 1; n < seq; n++ {
				o.seen[n%w/64] &^= 1 << (n % 64)
			}
		}
		o.top = seq
	case o.top-seq >= w:
		return false // too far behind to tell: taken as seen
	case o.seen[seq%w/64]&(1<<(seq%64)) != 0:
		return false
	}
	o.seen[seq%w/64] |= 1 << (seq % 64)
	return true
}

// deliverLocal delivers the origin's own broadcast immediately.
func (s *Stack) deliverLocal(b *message.Bcast) {
	switch b.Class {
	case message.ClassReliable:
		s.deliver(Delivery{Class: b.Class, Origin: b.Origin, Seq: b.Seq, Payload: b.Payload, Trace: b.Trace})
	case message.ClassCausal:
		s.acceptCausal(b)
	}
}

func (s *Stack) deliver(d Delivery) {
	s.Deliveries[d.Class]++
	s.cfg.Tracer.Point(d.Trace, trace.KindBcastDeliver, d.Seq, d.Origin, int64(d.Class))
	s.cfg.Deliver(d)
}

// --- Causal ---------------------------------------------------------------

// causally deliverable: the message is the next from its origin and every
// other entry of its clock has already been delivered here.
func (s *Stack) causallyReady(b *message.Bcast) bool {
	o := int(b.Origin)
	if b.VC.Get(o) != s.cvc.Get(o)+1 {
		return false
	}
	for i := range b.VC {
		if i == o {
			continue
		}
		if b.VC[i] > s.cvc.Get(i) {
			return false
		}
	}
	return true
}

func (s *Stack) acceptCausal(b *message.Bcast) {
	if b.VC.Get(int(b.Origin)) <= s.cvc.Get(int(b.Origin)) {
		return // duplicate
	}
	s.cpend = append(s.cpend, heldBcast{b: b, at: s.cfg.Tracer.Now(), waited: !s.causallyReady(b)})
	s.drainCausal()
}

func (s *Stack) drainCausal() {
	for {
		progressed := false
		for i := 0; i < len(s.cpend); i++ {
			h := s.cpend[i]
			if !s.causallyReady(h.b) {
				continue
			}
			s.cpend = append(s.cpend[:i], s.cpend[i+1:]...)
			s.cvc = s.cvc.Set(int(h.b.Origin), h.b.VC.Get(int(h.b.Origin)))
			if h.waited {
				s.cfg.Tracer.Interval(h.b.Trace, trace.KindCausalHold, h.at, h.b.Seq, h.b.Origin, 0)
			}
			s.deliver(Delivery{Class: message.ClassCausal, Origin: h.b.Origin, Seq: h.b.Seq, VC: h.b.VC, Payload: h.b.Payload, Trace: h.b.Trace})
			progressed = true
			break
		}
		if !progressed {
			return
		}
	}
}

// CausalPending returns the number of causal messages held back waiting for
// their causal predecessors, a health metric.
func (s *Stack) CausalPending() int { return len(s.cpend) }

// CausalClock returns a copy of the delivered-message vector clock.
func (s *Stack) CausalClock() vclock.VC { return s.cvc.Clone() }

// --- Atomic: shared plumbing ----------------------------------------------

func (s *Stack) acceptAtomic(b *message.Bcast) {
	p := pair{b.Origin, b.Seq}
	if _, dup := s.apayload[p]; dup {
		return
	}
	s.apayload[p] = b
	if s.cfg.Atomic == AtomicIsis {
		s.isis.accept(b)
	} else {
		s.batch.accept(b)
	}
}

func (s *Stack) handleSeqOrder(ord *message.SeqOrder) {
	for _, e := range ord.Entries {
		s.recordOrder(e)
	}
	s.drainAtomic()
}

func (s *Stack) recordOrder(e message.OrderEntry) {
	if e.Index < s.anext {
		return // already delivered or covered by a state transfer
	}
	p := pair{e.Origin, e.Seq}
	if _, dup := s.aindexed[p]; dup {
		return
	}
	if prev, taken := s.aorder[e.Index]; taken && prev != p {
		s.rt.Logf("broadcast: conflicting order for index %d: %v vs %v", e.Index, prev, p)
		return
	}
	s.aindexed[p] = e.Index
	s.aorder[e.Index] = p
	if e.Index > s.ahighSeen {
		s.ahighSeen = e.Index
	}
}

func (s *Stack) drainAtomic() {
	for {
		p, ok := s.aorder[s.anext]
		if !ok {
			return
		}
		b, ok := s.apayload[p]
		if !ok {
			return // order known, payload still in flight
		}
		idx := s.anext
		s.anext++
		delete(s.aorder, idx)
		delete(s.apayload, p)
		delete(s.aindexed, p)
		s.retain(idx, b)
		s.deliver(Delivery{Class: message.ClassAtomic, Origin: p.origin, Seq: p.seq, Index: idx, Payload: b.Payload, Trace: b.Trace})
	}
}

// retain stores a delivered atomic broadcast for later retransmission,
// trimming to the retention window.
func (s *Stack) retain(idx uint64, b *message.Bcast) {
	if s.HistoryRetention <= 0 {
		return
	}
	s.history[idx] = b
	if idx > s.historyHigh {
		s.historyHigh = idx
	}
	for len(s.history) > s.HistoryRetention {
		delete(s.history, s.historyLow)
		s.historyLow++
	}
}

// SkipTo fast-forwards the atomic delivery stream to the given index after
// a state transfer: everything below is covered by the snapshot, and stale
// buffered ordering state is discarded.
func (s *Stack) SkipTo(next uint64) {
	if next <= s.anext {
		return
	}
	s.anext = next
	// Nothing in [old anext, next) will ever be delivered, hence retained,
	// here: the retransmission history restarts at next. Keeping the old
	// suffix (or, after a restart, historyLow = 1) would let Retransmit
	// answer a request from inside the hole with a partial resend instead
	// of 0, and the requester would wait for deliveries that cannot come
	// in place of asking for a state transfer.
	clear(s.history)
	s.historyLow, s.historyHigh = next, next-1
	for idx, p := range s.aorder {
		if idx < next {
			delete(s.apayload, p)
			delete(s.aindexed, p)
			delete(s.aorder, idx)
		}
	}
	s.drainAtomic()
}

// Gap reports the next undeliverable index when later indices are already
// known — evidence that ordering or payload messages were lost and need
// retransmission.
func (s *Stack) Gap() (uint64, bool) {
	if s.ahighSeen < s.anext {
		return 0, false
	}
	if p, ok := s.aorder[s.anext]; ok {
		if _, havePayload := s.apayload[p]; havePayload {
			return 0, false // deliverable; drain will handle it
		}
	}
	return s.anext, true
}

// Retransmit resends the retained atomic broadcasts with indices in
// [from, latest] to one peer, re-announcing their order. It returns how
// many were resent; a zero return with from below the retention window
// means the peer needs a fresh state transfer instead.
func (s *Stack) Retransmit(to message.SiteID, from uint64) int {
	if from < s.historyLow {
		return 0
	}
	n := 0
	for idx := from; idx <= s.historyHigh; idx++ {
		b, ok := s.history[idx]
		if !ok {
			continue
		}
		relay := *b
		relay.Relayed = true
		s.rt.Send(to, &relay)
		ord := message.NewSeqOrder(s.rt.ID(), 1)
		ord.Entries = append(ord.Entries, message.OrderEntry{Origin: b.Origin, Seq: b.Seq, Index: idx})
		s.rt.Send(to, ord)
		n++
	}
	return n
}

// OnViewChange re-drives ordering after a membership change: a newly
// elected leader orders the orphaned messages, and in ISIS mode in-flight
// finalizations are re-checked against the shrunken member set.
func (s *Stack) OnViewChange() {
	if s.cfg.Atomic == AtomicIsis {
		s.isis.Recheck()
	} else {
		s.batch.onViewChange()
	}
}

// AtomicPending returns how many atomic messages are buffered awaiting
// order or payload.
func (s *Stack) AtomicPending() int { return len(s.apayload) }

// NextAtomicIndex returns the next total-order index this site will
// deliver.
func (s *Stack) NextAtomicIndex() uint64 { return s.anext }

// --- State transfer -------------------------------------------------------

// ExportSync captures this stack's delivery frontiers and undelivered
// buffers for a state transfer. The held messages are sorted so the export
// is deterministic.
func (s *Stack) ExportSync() *message.StackSync {
	sync := &message.StackSync{
		CausalVC: s.cvc.Clone(),
		HighSeq:  make(map[message.Class]map[message.SiteID]uint64),
	}
	for c := range s.classes {
		origins := s.classes[c].origins
		if len(origins) == 0 {
			continue
		}
		m := make(map[message.SiteID]uint64, len(origins))
		for _, o := range origins {
			if o.high > 0 {
				m[o.origin] = o.high
			}
		}
		sync.HighSeq[message.Class(c)] = m
	}
	var held []*message.Bcast
	for _, h := range s.cpend {
		held = append(held, h.b)
	}
	for _, b := range s.apayload {
		held = append(held, b)
	}
	sort.Slice(held, func(i, j int) bool {
		a, b := held[i], held[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})
	sync.Held = held
	return sync
}

// ImportSync merges a donor's frontiers into this stack. Every merge is
// monotone (max), so importing is safe for a healthy site and idempotent
// for a restarted one: delivery of messages the accompanying snapshot
// already covers is skipped, this site's send sequences resume above
// everything the cluster has seen from it, and the donor's undelivered
// buffers are replayed so nothing waits on a message no peer will resend.
func (s *Stack) ImportSync(sync *message.StackSync) {
	if sync == nil {
		return
	}
	for i := range sync.CausalVC {
		if v := sync.CausalVC.Get(i); v > s.cvc.Get(i) {
			s.cvc = s.cvc.Set(i, v)
		}
	}
	self := s.rt.ID()
	for c, m := range sync.HighSeq {
		if !knownClass(c) {
			continue
		}
		cs := &s.classes[c]
		for o, n := range m {
			if seqs := s.originSeqs(cs, o); n > seqs.high {
				seqs.high = n
			}
		}
		if n := m[self]; n > cs.sendSeq {
			cs.sendSeq = n
		}
	}
	// The causal clock's own entry counts this site's sends too: peers have
	// delivered that many of our causal broadcasts.
	if n := sync.CausalVC.Get(int(self)); n > s.classes[message.ClassCausal].sendSeq {
		s.classes[message.ClassCausal].sendSeq = n
	}
	for _, b := range sync.Held {
		replay := *b
		replay.Relayed = true // already cluster-wide; do not re-relay
		s.handleBcast(self, &replay)
	}
	s.drainCausal()
	s.drainAtomic()
}

// String implements fmt.Stringer.
func (s *Stack) String() string {
	return fmt.Sprintf("stack(%v next=%d cpend=%d apend=%d)", s.rt.ID(), s.anext, len(s.cpend), len(s.apayload))
}
