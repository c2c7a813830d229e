// Package sim is a deterministic discrete-event simulator that hosts
// protocol nodes behind the env.Runtime interface. All node code runs on a
// single goroutine over virtual time with a seeded random source, so every
// run — including failure and partition schedules — is reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/env"
	"repro/internal/message"
)

// LinkModel decides per-message network behaviour.
type LinkModel interface {
	// Latency returns the one-way delay for a message of the given size and
	// whether the message is dropped instead.
	Latency(from, to message.SiteID, size int, r *rand.Rand) (delay time.Duration, drop bool)
}

// TimedLinkModel is an optional extension of LinkModel for models that keep
// state keyed to the simulated clock — e.g. a shared medium that serialises a
// sender's transmissions, so each message occupies the sender's link for a
// stretch of virtual time and concurrent sends queue behind each other. When
// a cluster's link implements it, Send calls LatencyAt with the current
// virtual time instead of Latency.
type TimedLinkModel interface {
	LinkModel
	// LatencyAt is Latency with the sender's current virtual clock; the
	// returned delay is measured from now.
	LatencyAt(now time.Duration, from, to message.SiteID, size int, r *rand.Rand) (delay time.Duration, drop bool)
}

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tiebreak: schedule order
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NetStats aggregates network traffic counters.
type NetStats struct {
	Messages int64
	Bytes    int64
	Dropped  int64
	// ByKind counts top-level messages per kind; broadcast envelopes are
	// additionally attributed to their payload's kind in ByPayload (and
	// their bytes in PayloadBytes).
	ByKind       map[message.Kind]int64
	ByPayload    map[message.Kind]int64
	KindBytes    map[message.Kind]int64
	PayloadBytes map[message.Kind]int64
}

func newNetStats() NetStats {
	return NetStats{
		ByKind:       make(map[message.Kind]int64),
		ByPayload:    make(map[message.Kind]int64),
		KindBytes:    make(map[message.Kind]int64),
		PayloadBytes: make(map[message.Kind]int64),
	}
}

// Clone returns an independent copy of the stats.
func (s NetStats) Clone() NetStats {
	c := s
	c.ByKind = cloneMap(s.ByKind)
	c.ByPayload = cloneMap(s.ByPayload)
	c.KindBytes = cloneMap(s.KindBytes)
	c.PayloadBytes = cloneMap(s.PayloadBytes)
	return c
}

func cloneMap(m map[message.Kind]int64) map[message.Kind]int64 {
	c := make(map[message.Kind]int64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Cluster is a simulated network of sites plus the event queue that drives
// them.
type Cluster struct {
	now     time.Duration
	queue   eventHeap
	seq     uint64
	link    LinkModel
	sites   []*siteRT
	peers   []message.SiteID
	group   map[message.SiteID]int     // partition group; all 0 when healed
	blocked map[[2]message.SiteID]bool // directed blocked links (asymmetric cuts)
	stats   NetStats
	wire    []byte // scratch: the last sent message's encoding, kept for its length

	// LogWriter receives debug lines from nodes when non-nil.
	LogWriter io.Writer
	// MaxEvents bounds a single Run call as a runaway-loop backstop.
	MaxEvents int
	// OnDeliver, when non-nil, observes every successful message delivery
	// (tracing tools). It runs just before the receiving node's handler.
	OnDeliver func(from, to message.SiteID, m message.Message, at time.Duration)
}

// siteRT is the per-site env.Runtime implementation.
type siteRT struct {
	c         *Cluster
	id        message.SiteID
	node      env.Node
	crashed   bool
	crashes   int           // incarnation: timers and completions of an earlier one are dropped
	offset    time.Duration // clock skew relative to cluster time
	rng       *rand.Rand
	nextTimer env.TimerID
	cancelled map[env.TimerID]bool
	// lastArrival enforces FIFO per sender: arrivals from one sender are
	// never scheduled before an earlier send's arrival.
	lastArrival map[message.SiteID]time.Duration
	// diskFree is when the site's one disk finishes the last offloaded job.
	diskFree time.Duration
}

// syncLatency is the virtual time one offloaded job (a WAL batch's
// write+fsync) keeps a site's disk busy.
const syncLatency = 5 * time.Millisecond

// NewCluster creates a cluster of n sites (ids 0..n-1) connected by the
// given link model, with all randomness derived from seed.
func NewCluster(n int, link LinkModel, seed int64) *Cluster {
	c := &Cluster{
		link:      link,
		group:     make(map[message.SiteID]int, n),
		blocked:   make(map[[2]message.SiteID]bool),
		stats:     newNetStats(),
		MaxEvents: 200_000_000,
	}
	base := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		id := message.SiteID(i)
		c.peers = append(c.peers, id)
		c.sites = append(c.sites, &siteRT{
			c:           c,
			id:          id,
			rng:         rand.New(rand.NewSource(base.Int63())),
			cancelled:   make(map[env.TimerID]bool),
			lastArrival: make(map[message.SiteID]time.Duration),
		})
	}
	return c
}

// N returns the number of sites.
func (c *Cluster) N() int { return len(c.sites) }

// Runtime returns the env.Runtime for site id, for constructing its node.
func (c *Cluster) Runtime(id message.SiteID) env.Runtime { return c.sites[id] }

// Bind installs the node for site id. It must be called before Start.
func (c *Cluster) Bind(id message.SiteID, n env.Node) { c.sites[id].node = n }

// Node returns the node bound to site id.
func (c *Cluster) Node(id message.SiteID) env.Node { return c.sites[id].node }

// Start schedules every bound node's Start callback at the current time.
func (c *Cluster) Start() {
	for _, s := range c.sites {
		s := s
		c.schedule(0, func() {
			if !s.crashed && s.node != nil {
				s.node.Start()
			}
		})
	}
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.now }

// Stats returns a copy of the accumulated network counters.
func (c *Cluster) Stats() NetStats { return c.stats.Clone() }

// ResetStats zeroes the network counters (e.g. after warm-up).
func (c *Cluster) ResetStats() { c.stats = newNetStats() }

// Schedule runs fn after d of virtual time. The harness uses it to inject
// client work and failure schedules.
func (c *Cluster) Schedule(d time.Duration, fn func()) {
	c.schedule(d, fn)
}

func (c *Cluster) schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.seq++
	heap.Push(&c.queue, &event{at: c.now + d, seq: c.seq, fn: fn})
}

// Step executes the next event; it reports false when the queue is empty.
func (c *Cluster) Step() bool {
	if c.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&c.queue).(*event)
	if e.at > c.now {
		c.now = e.at
	}
	e.fn()
	return true
}

// Run executes events until the queue is empty or virtual time passes
// until. It returns the number of events executed and an error if the
// MaxEvents backstop fired.
func (c *Cluster) Run(until time.Duration) (int, error) {
	n := 0
	for c.queue.Len() > 0 {
		if c.queue[0].at > until {
			c.now = until
			return n, nil
		}
		c.Step()
		n++
		if n >= c.MaxEvents {
			return n, fmt.Errorf("sim: exceeded %d events at t=%v", c.MaxEvents, c.now)
		}
	}
	if until > c.now {
		c.now = until
	}
	return n, nil
}

// RunUntilIdle executes events until the queue drains, with the MaxEvents
// backstop.
func (c *Cluster) RunUntilIdle() (int, error) {
	n := 0
	for c.Step() {
		n++
		if n >= c.MaxEvents {
			return n, fmt.Errorf("sim: exceeded %d events at t=%v", c.MaxEvents, c.now)
		}
	}
	return n, nil
}

// Crash stops site id: deliveries for it are discarded until Recover, and
// the timers and offload completions it armed never fire, not even after
// Recover — the node that armed them died, and the restarted site speaks
// through the same runtime.
func (c *Cluster) Crash(id message.SiteID) {
	c.sites[id].crashed = true
	c.sites[id].crashes++
}

// Recover restarts site id. The caller typically binds a fresh node first
// (state is recovered through the protocol's state-transfer path) and then
// invokes Start on it via Schedule.
func (c *Cluster) Recover(id message.SiteID) { c.sites[id].crashed = false }

// Crashed reports whether site id is currently crashed.
func (c *Cluster) Crashed(id message.SiteID) bool { return c.sites[id].crashed }

// Partition splits the cluster into the given groups; messages between
// different groups are dropped. Sites not mentioned form an implicit final
// group.
func (c *Cluster) Partition(groups ...[]message.SiteID) {
	c.group = make(map[message.SiteID]int, len(c.sites))
	for gi, g := range groups {
		for _, id := range g {
			c.group[id] = gi + 1
		}
	}
}

// BlockLink severs the directed link from one site to another: messages
// from→to are dropped while to→from still flows. Asymmetric partitions and
// partial-connectivity (bridge) topologies compose from directed blocks.
func (c *Cluster) BlockLink(from, to message.SiteID) {
	c.blocked[[2]message.SiteID{from, to}] = true
}

// UnblockLink re-opens the directed link from→to.
func (c *Cluster) UnblockLink(from, to message.SiteID) {
	delete(c.blocked, [2]message.SiteID{from, to})
}

// BlockPair severs both directions between a and b (a symmetric cut of one
// link, leaving all other connectivity intact — e.g. a bridge topology
// where a and b still reach each other through a third site at the
// protocol's mercy).
func (c *Cluster) BlockPair(a, b message.SiteID) {
	c.BlockLink(a, b)
	c.BlockLink(b, a)
}

// PartitionAsym drops all traffic from every site in from to every site in
// to, one direction only: to's sites still reach from's. A heartbeating
// failure detector on the to side suspects the from side while the from
// side sees a healthy cluster — the classic asymmetric-partition trap.
func (c *Cluster) PartitionAsym(from, to []message.SiteID) {
	for _, f := range from {
		for _, t := range to {
			c.BlockLink(f, t)
		}
	}
}

// Heal removes any partition and every directed block.
func (c *Cluster) Heal() {
	c.group = make(map[message.SiteID]int, len(c.sites))
	c.blocked = make(map[[2]message.SiteID]bool)
}

func (c *Cluster) connected(a, b message.SiteID) bool {
	return c.group[a] == c.group[b] && !c.blocked[[2]message.SiteID{a, b}]
}

// SetClockOffset skews site id's local clock by off relative to virtual
// time (its env.Runtime Now returns cluster time plus the offset). Timers
// still fire on cluster time — the skew perturbs timestamp-derived logic
// (failure-detector timeouts, trace spans), not the event loop.
func (c *Cluster) SetClockOffset(id message.SiteID, off time.Duration) {
	c.sites[id].offset = off
}

// --- env.Runtime implementation -----------------------------------------

// ID implements env.Runtime.
func (s *siteRT) ID() message.SiteID { return s.id }

// Peers implements env.Runtime.
func (s *siteRT) Peers() []message.SiteID { return s.c.peers }

// Send implements env.Runtime.
func (s *siteRT) Send(to message.SiteID, m message.Message) {
	c := s.c
	if s.crashed {
		return
	}
	// Messages travel as pointers; a message is encoded only to charge the
	// link models and the byte counters the bytes a deployment would send.
	c.wire = message.AppendMessage(c.wire[:0], m)
	size := len(c.wire)
	c.stats.Messages++
	c.stats.Bytes += int64(size)
	c.stats.ByKind[m.Kind()]++
	c.stats.KindBytes[m.Kind()] += int64(size)
	if b, ok := m.(*message.Bcast); ok {
		c.stats.ByPayload[b.Payload.Kind()]++
		c.stats.PayloadBytes[b.Payload.Kind()] += int64(size)
	}
	if int(to) < 0 || int(to) >= len(c.sites) {
		return
	}
	dst := c.sites[to]
	if !c.connected(s.id, to) {
		c.stats.Dropped++
		return
	}
	var delay time.Duration
	var drop bool
	if tl, ok := c.link.(TimedLinkModel); ok {
		delay, drop = tl.LatencyAt(c.now, s.id, to, size, s.rng)
	} else {
		delay, drop = c.link.Latency(s.id, to, size, s.rng)
	}
	if drop {
		c.stats.Dropped++
		return
	}
	at := c.now + delay
	if last, ok := dst.lastArrival[s.id]; ok && at < last {
		at = last
	}
	dst.lastArrival[s.id] = at
	from := s.id
	c.schedule(at-c.now, func() {
		if dst.crashed || dst.node == nil {
			c.stats.Dropped++
			return
		}
		if !c.connected(from, dst.id) {
			c.stats.Dropped++
			return
		}
		if c.OnDeliver != nil {
			c.OnDeliver(from, dst.id, m, c.now)
		}
		dst.node.Receive(from, m)
	})
}

// SetTimer implements env.Runtime.
func (s *siteRT) SetTimer(d time.Duration, fn func()) env.TimerID {
	s.nextTimer++
	id, inc := s.nextTimer, s.crashes
	s.c.schedule(d, func() {
		if s.cancelled[id] {
			delete(s.cancelled, id)
			return
		}
		if s.live(inc) {
			fn()
		}
	})
	return id
}

// CancelTimer implements env.Runtime.
func (s *siteRT) CancelTimer(id env.TimerID) {
	if id == 0 {
		return
	}
	s.cancelled[id] = true
}

// Offload is the simulator's disk, the capability livenet.Host offers with a
// syncer goroutine: work runs before Offload returns — there is one
// goroutine, and a Flush or Barrier on it that waits for the syncer's signal
// must find it already sent — and done is a site event syncLatency after the
// site's previous job finished, since one site has one disk. A site that
// crashes before then never runs done: the acknowledgements die with it.
func (s *siteRT) Offload(work, done func()) bool {
	work()
	s.diskFree = max(s.diskFree, s.c.now) + syncLatency
	inc := s.crashes
	s.c.schedule(s.diskFree-s.c.now, func() {
		if s.live(inc) {
			done()
		}
	})
	return true
}

// live reports whether the site is up and still the incarnation that
// scheduled the event.
func (s *siteRT) live(inc int) bool { return !s.crashed && s.crashes == inc }

// Now implements env.Runtime: the site's possibly skewed local clock.
func (s *siteRT) Now() time.Duration { return s.c.now + s.offset }

// Rand implements env.Runtime.
func (s *siteRT) Rand() *rand.Rand { return s.rng }

// Logf implements env.Runtime.
func (s *siteRT) Logf(format string, args ...any) {
	if s.c.LogWriter == nil {
		return
	}
	fmt.Fprintf(s.c.LogWriter, "%10v %v | %s\n", s.c.now, s.id, fmt.Sprintf(format, args...))
}
