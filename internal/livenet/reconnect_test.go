package livenet

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/message"
)

// captureNode is a stub env.Node recording who it heard from.
type captureNode struct {
	mu   sync.Mutex
	from map[message.SiteID]int
}

func newCaptureNode() *captureNode {
	return &captureNode{from: make(map[message.SiteID]int)}
}

func (c *captureNode) Start() {}

func (c *captureNode) Receive(from message.SiteID, m message.Message) {
	c.mu.Lock()
	c.from[from]++
	c.mu.Unlock()
}

func (c *captureNode) countFrom(id message.SiteID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.from[id]
}

// startRawHost boots one Host with a capture node on a pre-bound listener.
func startRawHost(t *testing.T, id message.SiteID, addrs map[message.SiteID]string, ln net.Listener) (*Host, *captureNode) {
	t.Helper()
	h, err := New(Config{
		ID:        id,
		Addrs:     addrs,
		Listener:  ln,
		DialRetry: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := newCaptureNode()
	h.Bind(n)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	return h, n
}

// waitFrom polls until node has heard from id, feeding it with send.
func waitFrom(t *testing.T, node *captureNode, id message.SiteID, send func()) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for node.countFrom(id) == 0 {
		send()
		if time.Now().After(deadline) {
			t.Fatalf("never heard from site %v", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReconnectAfterRestart kills one host of a 3-site cluster mid-workload,
// restarts it on the same address, and asserts messages flow to it again —
// the accept-loop and sender-redial chaos test.
func TestReconnectAfterRestart(t *testing.T) {
	addrs := make(map[message.SiteID]string, 3)
	lns := make([]net.Listener, 3)
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[message.SiteID(i)] = ln.Addr().String()
	}
	hosts := make([]*Host, 3)
	nodes := make([]*captureNode, 3)
	for i := 0; i < 3; i++ {
		hosts[i], nodes[i] = startRawHost(t, message.SiteID(i), addrs, lns[i])
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Close()
		}
	})

	// Baseline traffic in both directions with site 1.
	waitFrom(t, nodes[1], 0, func() { hosts[0].Send(1, &message.Heartbeat{From: 0}) })
	waitFrom(t, nodes[0], 1, func() { hosts[1].Send(0, &message.Heartbeat{From: 1}) })

	// Kill site 1 and keep the workload running against it.
	hosts[1].Close()
	for i := 0; i < 20; i++ {
		hosts[0].Send(1, &message.Heartbeat{From: 0})
		time.Sleep(2 * time.Millisecond)
	}

	// Restart site 1 on the same address. The freed port can take a moment
	// to rebind, so retry briefly.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if ln, err = net.Listen("tcp", addrs[1]); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addrs[1], err)
	}
	hosts[1], nodes[1] = startRawHost(t, 1, addrs, ln)

	// Traffic resumes in both directions: site 0's sender redials, and the
	// restarted site's fresh senders reach the survivors.
	waitFrom(t, nodes[1], 0, func() { hosts[0].Send(1, &message.Heartbeat{From: 0}) })
	waitFrom(t, nodes[0], 1, func() { hosts[1].Send(0, &message.Heartbeat{From: 1}) })
	waitFrom(t, nodes[1], 2, func() { hosts[2].Send(1, &message.Heartbeat{From: 2}) })

	// Site 0 reconnected: its link to peer 1 shows more than one successful
	// dial, and the failure window registered dial errors or lost writes.
	var link *PeerStats
	for _, ps := range hosts[0].PeerStats() {
		if ps.Peer == 1 {
			ps := ps
			link = &ps
		}
	}
	if link == nil {
		t.Fatal("no PeerStats entry for peer 1")
	}
	if link.Connects < 2 {
		t.Fatalf("expected a reconnect to peer 1, got connects=%d (%s)", link.Connects, link)
	}
	if link.DialErrors == 0 && link.WireLost == 0 {
		t.Fatalf("expected dial errors or wire loss during the outage, got %s", link)
	}
}

// flakyListener fails its first Accept calls with a transient error.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

func (f *flakyListener) Accept() (net.Conn, error) {
	f.mu.Lock()
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("transient accept failure")
	}
	return f.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientError verifies the accept loop retries
// transient Accept errors instead of abandoning the listener forever.
func TestAcceptLoopSurvivesTransientError(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[message.SiteID]string{0: lnA.Addr().String(), 1: lnB.Addr().String()}
	hostA, nodeA := startRawHost(t, 0, addrs, &flakyListener{Listener: lnA, failures: 3})
	hostB, _ := startRawHost(t, 1, addrs, lnB)
	t.Cleanup(func() { hostA.Close(); hostB.Close() })

	waitFrom(t, nodeA, 1, func() { hostB.Send(0, &message.Heartbeat{From: 1}) })
}

// TestSelfSendDelivered verifies the env.Runtime contract that sends to
// self are delivered like any other message (the simulator does; the TCP
// runtime used to drop them silently).
func TestSelfSendDelivered(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[message.SiteID]string{0: ln.Addr().String()}
	host, node := startRawHost(t, 0, addrs, ln)
	t.Cleanup(host.Close)

	host.Send(0, &message.Heartbeat{From: 0})
	deadline := time.Now().Add(5 * time.Second)
	for node.countFrom(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("self-send never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	sent, received, _ := host.Counters()
	if sent == 0 || received == 0 {
		t.Fatalf("loopback not counted: sent=%d received=%d", sent, received)
	}
}

// TestWriteCoalescing drives a burst through one link and checks the
// flush-batch histogram recorded multi-message batches.
func TestWriteCoalescing(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[message.SiteID]string{0: lnA.Addr().String(), 1: lnB.Addr().String()}
	hostA, _ := startRawHost(t, 0, addrs, lnA)
	hostB, nodeB := startRawHost(t, 1, addrs, lnB)
	t.Cleanup(func() { hostA.Close(); hostB.Close() })

	const burst = 500
	for i := 0; i < burst; i++ {
		hostA.Send(1, &message.Heartbeat{From: 0})
	}
	deadline := time.Now().Add(15 * time.Second)
	for nodeB.countFrom(0) < burst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d delivered", nodeB.countFrom(0), burst)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var flushes int64
	for _, ps := range hostA.PeerStats() {
		if ps.Peer == 1 {
			if ps.Sent != burst {
				t.Fatalf("sent=%d, want %d (%s)", ps.Sent, burst, ps)
			}
			flushes = hostA.stats[1].flushBatch.Count()
		}
	}
	// Coalescing means strictly fewer flushes than messages: the sender
	// drains whatever queued while the previous batch was being written.
	if flushes == 0 || flushes >= burst {
		t.Fatalf("flush count %d for %d messages — no coalescing", flushes, burst)
	}
}

var _ env.Node = (*captureNode)(nil)
