// Package trace records per-transaction causal spans across every layer of
// the replicated-database stack: client begin, lock acquisition, write
// dissemination, the broadcast primitive's internal rounds (explicit acks
// for protocol R, vector-clock holds for protocol C, sequencer/ISIS
// ordering for protocol A), vote exchange, certification, and apply.
//
// Spans are keyed by the transaction identifier, which doubles as the trace
// ID: it is minted once at the home site and propagated through every
// message envelope, so spans emitted at remote sites stitch into one trace
// offline (see cmd/tracecheck).
//
// Collection is a fixed-size per-site ring buffer with atomic slot
// reservation: emitting a span allocates nothing, and under pressure the
// ring drops the oldest spans (Dropped reports how many). The buffer
// exports as JSONL (export.go) so the simulator, the TCP runtime, and the
// replicadb TRACE command all produce the same format.
//
// Timestamps are injected (func() time.Duration) rather than read from the
// wall clock, so engine packages keep their determinism contract: under
// internal/sim the clock is virtual time, under internal/livenet it is
// time since process start.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/message"
)

// Kind classifies a span: one protocol phase at one site.
type Kind uint8

// Span kinds, roughly in the order a committing update transaction emits
// them. Point events have Start == End; intervals measure a wait.
const (
	// KindBegin marks transaction begin at the home site. Extra is 1 for
	// read-only transactions.
	KindBegin Kind = iota
	// KindWriteSend marks the home site handing one write (or the deferred
	// batch, Seq 0) to the dissemination layer. Seq is the operation
	// sequence number.
	KindWriteSend
	// KindCommitReq marks the client requesting commit at the home site.
	KindCommitReq
	// KindBcastSend marks the broadcast stack accepting a local broadcast.
	// Seq is the per-origin broadcast sequence, Extra the message.Class.
	KindBcastSend
	// KindBcastDeliver marks the stack delivering a broadcast (local or
	// remote). Peer is the origin, Seq the per-origin broadcast sequence,
	// Extra the message.Class.
	KindBcastDeliver
	// KindCausalHold measures how long a causal broadcast was held for a
	// vector-clock predecessor. Peer is the origin, Seq the origin sequence.
	KindCausalHold
	// KindSeqOrder marks the ordering leader (the fixed sequencer or the
	// batch orderer's leader) assigning a total-order index to an atomic
	// broadcast. Seq is the assigned index, Peer the broadcast origin.
	KindSeqOrder
	// KindIsisPropose marks this site proposing a timestamp for an atomic
	// broadcast in the ISIS variant. Seq is the proposed timestamp, Peer
	// the broadcast origin.
	KindIsisPropose
	// KindIsisFinal marks this site learning the agreed ISIS timestamp.
	// Seq is the final timestamp, Peer the broadcast origin.
	KindIsisFinal
	// KindAck marks an explicit per-operation acknowledgement arriving at
	// the home site (protocols R and baseline). Peer is the acker, Seq the
	// operation sequence, Extra 1 for a positive ack.
	KindAck
	// KindNack marks protocol C's explicit negative acknowledgement being
	// delivered. Peer is the nacking site.
	KindNack
	// KindAckWait measures the home site's acknowledgement round: protocol
	// R from last write send to last ack, protocol C from commit request
	// to implicit-ack closure.
	KindAckWait
	// KindVote marks a two-phase-commit vote arriving (protocols R and
	// baseline). Peer is the voter, Extra 1 for a yes vote.
	KindVote
	// KindCertWait measures protocol A's queueing delay between total-order
	// delivery of a certification request and its certification.
	KindCertWait
	// KindCert marks protocol A certifying a transaction. Seq is the
	// total-order index, Extra 1 for pass.
	KindCert
	// KindLockWait measures a queued lock request from enqueue to grant.
	// Extra is the lock mode.
	KindLockWait
	// KindApply marks committed writes being installed. Seq is the commit
	// index (LSN), Extra the number of writes.
	KindApply
	// KindOutcome measures the whole transaction at its home site, from
	// begin to commit/abort. Extra is 1 for commit, Seq the abort reason.
	KindOutcome
	// KindReadReply marks a quorum read reply arriving. Peer is the
	// replica, Seq the read position.
	KindReadReply
	// KindLockGrant marks a quorum write-lock grant arriving. Peer is the
	// granting replica.
	KindLockGrant
	// KindNetSend marks the TCP transport enqueueing a message for a peer.
	// Extra is the message.Kind.
	KindNetSend
	// KindNetRecv marks the TCP transport decoding a message from a peer.
	// Extra is the message.Kind.
	KindNetRecv
	// KindCheckpoint is an interval spanning one durable checkpoint:
	// group-commit barrier through WAL truncation. Non-transactional
	// (zero trace ID); Seq is the checkpointed applied index, Extra the
	// checkpoint file's size in bytes.
	KindCheckpoint

	// KindShardCoord marks a cross-shard coordinator opening its
	// vote-collection round. Seq is a bitmask of the touched groups
	// (bit g set = group g touched), Extra the number of touched groups.
	KindShardCoord
	// KindShardCert marks one replica certifying an ordered request within
	// a replication group. Seq is the group-local order index, Peer the
	// group identifier, Extra 1 for a yes verdict and 0 for no.
	KindShardCert
	// KindShardDecide marks a cross-shard decision delivered in a group's
	// total order. Seq is the group-local decision index, Peer the group
	// identifier, Extra 1 for commit and 0 for abort.
	KindShardDecide
	// KindShardTakeover marks a successor opening a termination round for
	// a prepare whose coordinator is suspected. Seq is the touched-group
	// bitmask (as KindShardCoord), Peer the successor site, Extra the
	// number of touched groups.
	KindShardTakeover

	numKinds
)

var kindNames = [numKinds]string{
	KindBegin:         "begin",
	KindWriteSend:     "write-send",
	KindCommitReq:     "commit-req",
	KindBcastSend:     "bcast-send",
	KindBcastDeliver:  "bcast-deliver",
	KindCausalHold:    "causal-hold",
	KindSeqOrder:      "seq-order",
	KindIsisPropose:   "isis-propose",
	KindIsisFinal:     "isis-final",
	KindAck:           "ack",
	KindNack:          "nack",
	KindAckWait:       "ack-wait",
	KindVote:          "vote",
	KindCertWait:      "cert-wait",
	KindCert:          "cert",
	KindLockWait:      "lock-wait",
	KindApply:         "apply",
	KindOutcome:       "outcome",
	KindReadReply:     "read-reply",
	KindLockGrant:     "lock-grant",
	KindNetSend:       "net-send",
	KindNetRecv:       "net-recv",
	KindCheckpoint:    "checkpoint",
	KindShardCoord:    "shard-coord",
	KindShardCert:     "shard-cert",
	KindShardDecide:   "shard-decide",
	KindShardTakeover: "shard-takeover",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// ParseKind maps a span-kind name from an export back to its Kind.
func ParseKind(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// NoPeer marks spans that do not involve a remote site.
const NoPeer = message.SiteID(-1)

// Span is one phase event. All fields are fixed-size values so a ring of
// spans stays a single flat allocation and emission never allocates.
type Span struct {
	Trace message.TxnID // transaction whose trace this span belongs to (zero for non-transactional traffic)
	Site  message.SiteID
	Kind  Kind
	Start time.Duration // site-local clock; sim virtual time or time since process start
	End   time.Duration // == Start for point events
	Seq   uint64        // kind-specific sequence (op number, broadcast seq, order index, LSN)
	Peer  message.SiteID
	Extra int64 // kind-specific detail (class, ok flag, mode, message kind)
}

// Duration returns the span's length (zero for point events).
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Tracer collects spans for one site in a fixed-size ring. All methods are
// nil-receiver safe so instrumented code paths need no tracing-enabled
// branches. Emission is safe from multiple goroutines.
//
// The ring reserves slots with an atomic counter under a read lock; Export
// takes the write lock, so every reserved slot is fully written before a
// snapshot observes it. Two writers collide on a slot only if one laps the
// whole ring while the other is mid-write — with any reasonable capacity
// that cannot happen in practice, and the failure mode is one torn span in
// a diagnostic buffer, not a protocol-visible value.
type Tracer struct {
	site message.SiteID
	now  func() time.Duration

	mu    sync.RWMutex
	next  atomic.Uint64
	spans []Span
}

// DefaultCap is the ring capacity used when New is given capacity <= 0:
// 64Ki spans (~4MiB), enough for several thousand transactions per site.
const DefaultCap = 1 << 16

// New creates a tracer for site with the given ring capacity. now supplies
// timestamps; engines pass their runtime's virtual clock, the TCP host
// passes time-since-start. now must be safe to call from any goroutine the
// tracer is used on.
func New(site message.SiteID, capacity int, now func() time.Duration) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Tracer{site: site, now: now, spans: make([]Span, capacity)}
}

// Site returns the site the tracer records for.
func (t *Tracer) Site() message.SiteID {
	if t == nil {
		return NoPeer
	}
	return t.site
}

// Now returns the tracer's clock reading, or 0 on a nil tracer. Callers
// record interval start times through it without a nil check.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

// Point records an instantaneous event at the current clock reading.
// Zero-ID events are dropped: background traffic with no transaction
// attribution (heartbeats, causal nulls, view changes) would otherwise
// flood the ring.
//
// reprolint:noalloc
func (t *Tracer) Point(id message.TxnID, k Kind, seq uint64, peer message.SiteID, extra int64) {
	if t == nil || id.IsZero() {
		return
	}
	at := t.now() //reprolint:allow noalloc injected clock func field; both implementations (sim virtual time, monotonic since start) are allocation-free and TestEmitAllocs pins the whole path
	t.emit(Span{Trace: id, Site: t.site, Kind: k, Start: at, End: at, Seq: seq, Peer: peer, Extra: extra})
}

// Interval records an event that began at start and ends now. Zero-ID
// events are dropped, as in Point.
//
// reprolint:noalloc
func (t *Tracer) Interval(id message.TxnID, k Kind, start time.Duration, seq uint64, peer message.SiteID, extra int64) {
	if t == nil || id.IsZero() {
		return
	}
	end := t.now() //reprolint:allow noalloc injected clock func field; see Point
	t.emit(Span{Trace: id, Site: t.site, Kind: k, Start: start, End: end, Seq: seq, Peer: peer, Extra: extra})
}

// emit reserves the next ring slot and writes the span into it. The slot
// counter never resets, so slot%cap walks the ring and drop-oldest falls
// out of wraparound.
//
// reprolint:noalloc
func (t *Tracer) emit(s Span) {
	t.mu.RLock()
	slot := t.next.Add(1) - 1
	t.spans[slot%uint64(len(t.spans))] = s
	t.mu.RUnlock()
}

// Dropped returns how many spans have been overwritten by wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if c := uint64(len(t.spans)); n > c {
		return n - c
	}
	return 0
}

// Len returns the number of spans currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if c := uint64(len(t.spans)); n > c {
		return int(c)
	}
	return int(n)
}

// Spans returns the retained spans oldest-first. It excludes concurrent
// writers for the duration of the copy, so every returned span is fully
// written.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next.Load()
	c := uint64(len(t.spans))
	if n <= c {
		return append([]Span(nil), t.spans[:n]...)
	}
	// Ring has wrapped: oldest retained span sits at next%cap.
	start := n % c
	out := make([]Span, 0, c)
	out = append(out, t.spans[start:]...)
	out = append(out, t.spans[:start]...)
	return out
}
