// Package livenet hosts the protocol nodes on a real TCP network: the same
// event-driven engines that run under the deterministic simulator are bound
// to an env.Runtime backed by stdlib net, connections carrying
// internal/message's binary codec in length-prefixed frames (wire.go), and
// wall-clock timers. cmd/replicadb uses it to run a replica as an ordinary
// networked process.
//
// Concurrency model: every callback into the node (message receipt, timer
// expiry) is serialized by one mutex — the "event loop" — preserving the
// engines' single-threaded assumptions. The locking contract is:
//
//   - SetTimer, CancelTimer, Rand, and all env.Node callbacks run on the
//     event loop; they must not be called from arbitrary goroutines.
//     External code reaches the loop through Do.
//   - Send, Counters, PeerStats, Addr, ID, Peers, Now, Logf, Offload, and
//     Close are safe from any goroutine once Start has returned. Send and
//     Offload are also safe from the event loop itself (engines call them
//     inside callbacks).
//   - Work that waits for a disk leaves the loop through Offload: one
//     syncer goroutine per host runs it, and a poster goroutine brings the
//     completions back onto the loop (offload.go).
//
// Outgoing messages are queued per peer and written by one sender goroutine
// per peer (see sender.go), which performs a peer handshake, redials with
// jittered exponential backoff, and coalesces queue drains into single
// writes. Sends to self are delivered through an in-process loopback queue,
// matching the simulator's semantics. Delivery attributes messages to the
// handshake identity of the connection (frames carry no sender), so a peer
// cannot spoof another site's id.
package livenet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
)

// Connection management constants.
const (
	// handshakeTimeout bounds how long an inbound connection may stall
	// before sending its hello; protects the accept path from idle
	// connections holding goroutines.
	handshakeTimeout = 10 * time.Second
	// dialTimeout bounds one outbound connection attempt.
	dialTimeout = 2 * time.Second
	// acceptRetryMin/Max bound the accept loop's backoff on transient
	// Accept errors (EMFILE, ECONNABORTED, ...).
	acceptRetryMin = 5 * time.Millisecond
	acceptRetryMax = 1 * time.Second
)

// Config describes one site of a TCP cluster.
type Config struct {
	// ID is this site's identifier.
	ID message.SiteID
	// Addrs maps every site (including this one) to its host:port.
	Addrs map[message.SiteID]string
	// Listener, when non-nil, is used instead of listening on
	// Addrs[ID] — tests inject pre-bound ephemeral listeners.
	Listener net.Listener
	// Logger receives diagnostics; nil silences them.
	Logger *log.Logger
	// DialRetry is the initial reconnect backoff (default 500ms). Each
	// failed attempt doubles it, with ±50% jitter, up to MaxDialRetry;
	// a successful connection resets it.
	DialRetry time.Duration
	// MaxDialRetry caps backoff growth (default 16× DialRetry).
	MaxDialRetry time.Duration
	// SendQueue is the per-peer outgoing buffer (default 1024). When full,
	// messages are dropped — the protocols tolerate loss like a lossy link.
	SendQueue int
	// Seed for the runtime's random source (default: time-based would break
	// nothing here, but a fixed default keeps behaviour comparable).
	Seed int64
}

// Host implements env.Runtime over TCP.
type Host struct {
	cfg   Config
	peers []message.SiteID
	start time.Time

	// mu is the event loop: it serializes node callbacks and guards node,
	// nextTimer, timers, and closed.
	mu        sync.Mutex
	node      env.Node
	rng       *rand.Rand
	nextTimer env.TimerID
	timers    map[env.TimerID]*time.Timer
	closed    bool
	posts     int64 // loop entries the poster made (each runs every ready completion)

	off *offload // syncer and poster: off-loop work and its completions

	ln      net.Listener
	senders map[message.SiteID]*sender
	loop    chan message.Message // self-delivery queue
	stop    chan struct{}
	wg      sync.WaitGroup

	// connMu guards conns, the set of live inbound connections; Close
	// closes them all, which unblocks their read loops without needing a
	// watcher goroutine per connection.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// stats holds one counter block per site (including self, for the
	// loopback link). Built in New and immutable afterwards, so lookups
	// are lock-free; the counters themselves are atomic.
	stats map[message.SiteID]*peerCounters

	// tracer records net-send/net-recv spans for transaction-bearing
	// messages. Set via SetTracer between New and Start; immutable
	// afterwards (the Start goroutine launches establish the necessary
	// happens-before). Nil disables network tracing.
	tracer *trace.Tracer
}

var _ env.Runtime = (*Host)(nil)

// New creates a host; construct the node against it, Bind it, then Start.
func New(cfg Config) (*Host, error) {
	if _, ok := cfg.Addrs[cfg.ID]; !ok && cfg.Listener == nil {
		return nil, fmt.Errorf("livenet: no address for own id %v", cfg.ID)
	}
	if cfg.DialRetry <= 0 {
		cfg.DialRetry = 500 * time.Millisecond
	}
	if cfg.MaxDialRetry <= 0 {
		cfg.MaxDialRetry = 16 * cfg.DialRetry
	}
	if cfg.SendQueue <= 0 {
		cfg.SendQueue = 1024
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.ID) + 1
	}
	h := &Host{
		cfg:     cfg,
		start:   time.Now(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		timers:  make(map[env.TimerID]*time.Timer),
		senders: make(map[message.SiteID]*sender),
		stop:    make(chan struct{}),
		off:     newOffload(),
		conns:   make(map[net.Conn]struct{}),
		stats:   make(map[message.SiteID]*peerCounters),
	}
	for id := range cfg.Addrs {
		h.peers = append(h.peers, id)
		h.stats[id] = newPeerCounters()
	}
	if _, ok := h.stats[cfg.ID]; !ok { // Listener-only config without own addr
		h.peers = append(h.peers, cfg.ID)
		h.stats[cfg.ID] = newPeerCounters()
	}
	sort.Slice(h.peers, func(i, j int) bool { return h.peers[i] < h.peers[j] })
	return h, nil
}

// Bind installs the node. Must be called before Start.
func (h *Host) Bind(n env.Node) { h.node = n }

// SetTracer installs the span recorder. Must be called before Start; the
// tracer's clock should be h.Now so network spans share the engine timeline.
func (h *Host) SetTracer(t *trace.Tracer) { h.tracer = t }

// Start listens, connects to peers, and runs the node's Start callback.
func (h *Host) Start() error {
	if h.node == nil {
		return errors.New("livenet: Start before Bind")
	}
	ln := h.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", h.cfg.Addrs[h.cfg.ID])
		if err != nil {
			return fmt.Errorf("livenet: listen: %w", err)
		}
	}
	h.ln = ln
	h.wg.Add(1)
	go h.acceptLoop()
	h.loop = make(chan message.Message, h.cfg.SendQueue)
	h.wg.Add(1)
	go h.loopbackLoop()
	for _, id := range h.peers {
		if id == h.cfg.ID {
			continue
		}
		s := &sender{
			host:  h,
			to:    id,
			addr:  h.cfg.Addrs[id],
			out:   make(chan message.Message, h.cfg.SendQueue),
			rng:   rand.New(rand.NewSource(h.cfg.Seed*31 + int64(id))),
			stats: h.stats[id],
		}
		h.senders[id] = s
		h.wg.Add(1)
		go s.run()
	}
	h.mu.Lock()
	h.node.Start()
	h.mu.Unlock()
	return nil
}

// Addr returns the listening address (useful with ephemeral ports).
func (h *Host) Addr() string {
	if h.ln == nil {
		return ""
	}
	return h.ln.Addr().String()
}

// Close shuts the host down and waits for its goroutines, the syncer
// included: every job Offload accepted has run when Close returns, so a
// log written through it holds exactly the bytes that were synced. It is
// idempotent and safe from any goroutine.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for id, t := range h.timers {
		t.Stop()
		delete(h.timers, id)
	}
	h.mu.Unlock()
	close(h.stop)
	h.off.close()
	if h.ln != nil {
		h.ln.Close()
	}
	// Closing tracked inbound connections unblocks their read loops.
	h.connMu.Lock()
	for c := range h.conns {
		c.Close()
	}
	h.connMu.Unlock()
	h.wg.Wait()
}

func (h *Host) stopped() bool {
	select {
	case <-h.stop:
		return true
	default:
		return false
	}
}

func (h *Host) logf(format string, args ...any) {
	if h.cfg.Logger != nil {
		h.cfg.Logger.Printf("site %v: %s", h.cfg.ID, fmt.Sprintf(format, args...))
	}
}

// track registers an inbound connection for shutdown; it reports false (and
// the caller must close the connection) when the host is already stopping.
func (h *Host) track(conn net.Conn) bool {
	h.connMu.Lock()
	defer h.connMu.Unlock()
	if h.stopped() {
		return false
	}
	h.conns[conn] = struct{}{}
	return true
}

// untrack removes and closes an inbound connection; idempotent.
func (h *Host) untrack(conn net.Conn) {
	h.connMu.Lock()
	delete(h.conns, conn)
	h.connMu.Unlock()
	conn.Close()
}

// acceptLoop admits inbound connections; each runs a read loop. Transient
// Accept errors (EMFILE, ECONNABORTED, ...) are retried with backoff — the
// loop exits only on shutdown or when the listener itself is gone.
func (h *Host) acceptLoop() {
	defer h.wg.Done()
	backoff := acceptRetryMin
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			if h.stopped() || errors.Is(err, net.ErrClosed) {
				return
			}
			h.logf("accept: %v (retrying in %v)", err, backoff)
			select {
			case <-h.stop:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > acceptRetryMax {
				backoff = acceptRetryMax
			}
			continue
		}
		backoff = acceptRetryMin
		if !h.track(conn) {
			conn.Close()
			return
		}
		h.wg.Add(1)
		go h.readLoop(conn)
	}
}

// readLoop validates the peer handshake, then reads, decodes and delivers
// frames until the connection dies, a frame is malformed, or the host shuts
// down (Close closes tracked connections, which unblocks the read — no
// watcher goroutine). Every frame is attributed to the handshake identity.
func (h *Host) readLoop(conn net.Conn) {
	defer h.wg.Done()
	defer h.untrack(conn)
	br := bufio.NewReaderSize(conn, ioChunk)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	from, err := readHello(br)
	if err != nil {
		h.logf("rejecting %v: bad handshake: %v", conn.RemoteAddr(), err)
		return
	}
	st, known := h.stats[from]
	if !known {
		h.logf("rejecting %v: bad handshake: unknown site %v", conn.RemoteAddr(), from)
		return
	}
	conn.SetReadDeadline(time.Time{})
	var buf []byte
	for {
		var wire int
		buf, wire, err = readFrame(br, buf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !h.stopped() {
				h.logf("read from site %v (%v): %v", from, conn.RemoteAddr(), err)
			}
			return
		}
		m, err := message.DecodeMessage(buf)
		if err != nil {
			h.logf("decode from site %v (%v): %v", from, conn.RemoteAddr(), err)
			return
		}
		if cap(buf) > maxIdleBuf {
			buf = nil
		}
		st.received.Add(1)
		st.bytesRecv.Add(int64(wire))
		if id, ok := message.TxnOf(m); ok {
			h.tracer.Point(id, trace.KindNetRecv, 0, from, int64(m.Kind()))
		}
		h.deliver(from, m)
	}
}

// loopbackLoop drains the self-delivery queue. The indirection (rather than
// calling the node inline from Send) keeps Send non-reentrant: engines call
// Send while the event-loop mutex is held.
func (h *Host) loopbackLoop() {
	defer h.wg.Done()
	for {
		select {
		case <-h.stop:
			return
		case m := <-h.loop:
			h.stats[h.cfg.ID].received.Add(1)
			h.deliver(h.cfg.ID, m)
		}
	}
}

func (h *Host) deliver(from message.SiteID, m message.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.node == nil {
		return
	}
	h.node.Receive(from, m)
}

// --- env.Runtime ----------------------------------------------------------

// ID implements env.Runtime.
func (h *Host) ID() message.SiteID { return h.cfg.ID }

// Peers implements env.Runtime.
func (h *Host) Peers() []message.SiteID { return h.peers }

// Send implements env.Runtime: enqueue to the peer's sender (or the
// loopback queue for self-sends), dropping when the queue is full (the
// protocols treat that as network loss). Safe from any goroutine once
// Start has returned.
func (h *Host) Send(to message.SiteID, m message.Message) {
	st, ok := h.stats[to]
	if !ok {
		h.logf("send to unknown site %v, dropping %v", to, m.Kind())
		return
	}
	if to == h.cfg.ID {
		select {
		case h.loop <- m:
			st.sent.Add(1)
		default:
			st.dropped.Add(1)
			h.logf("loopback queue full, dropping %v", m.Kind())
		}
		return
	}
	s := h.senders[to]
	select {
	case s.out <- m:
		// Counted as sent by the sender goroutine once actually written.
		if id, ok := message.TxnOf(m); ok {
			h.tracer.Point(id, trace.KindNetSend, 0, to, int64(m.Kind()))
		}
	default:
		st.dropped.Add(1)
		h.logf("queue to %v full, dropping %v", to, m.Kind())
	}
}

// SetTimer implements env.Runtime. Event-loop only: callers must hold the
// loop (i.e. be inside a node callback or a Do closure).
//
// reprolint:looponly
func (h *Host) SetTimer(d time.Duration, fn func()) env.TimerID {
	h.nextTimer++
	id := h.nextTimer
	h.timers[id] = time.AfterFunc(d, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closed {
			return
		}
		if _, live := h.timers[id]; !live {
			return
		}
		delete(h.timers, id)
		fn()
	})
	return id
}

// CancelTimer implements env.Runtime. Event-loop only, like SetTimer.
//
// reprolint:looponly
func (h *Host) CancelTimer(id env.TimerID) {
	if t, ok := h.timers[id]; ok {
		t.Stop()
		delete(h.timers, id)
	}
}

// Now implements env.Runtime.
func (h *Host) Now() time.Duration { return time.Since(h.start) }

// Rand implements env.Runtime. Event-loop only.
//
// reprolint:looponly
func (h *Host) Rand() *rand.Rand { return h.rng }

// Logf implements env.Runtime.
func (h *Host) Logf(format string, args ...any) { h.logf(format, args...) }

// Do runs fn serialized with the node's event loop — the bridge external
// adapters (client servers, admin endpoints) use to call into the engine.
func (h *Host) Do(fn func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	fn()
}
