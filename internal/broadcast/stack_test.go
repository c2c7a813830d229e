package broadcast

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// testNode wires a Stack into the simulator and records deliveries and
// the order announcements it receives.
type testNode struct {
	st     *Stack
	got    []Delivery
	orders []announcement
}

// announcement is one SeqOrder received, with its sender.
type announcement struct {
	from message.SiteID
	ord  *message.SeqOrder
}

func (n *testNode) Start() {}

func (n *testNode) Receive(from message.SiteID, m message.Message) {
	if ord, ok := m.(*message.SeqOrder); ok {
		n.orders = append(n.orders, announcement{from, ord})
	}
	n.st.Handle(from, m)
}

// deliveredOrder lists a node's deliveries as origin/seq strings.
func (n *testNode) deliveredOrder() []string {
	var out []string
	for _, d := range n.got {
		out = append(out, fmt.Sprintf("%v/%d", d.Origin, d.Seq))
	}
	return out
}

// announcedBy returns the SeqOrders node received from sender.
func (n *testNode) announcedBy(sender message.SiteID) []*message.SeqOrder {
	var out []*message.SeqOrder
	for _, a := range n.orders {
		if a.from == sender {
			out = append(out, a.ord)
		}
	}
	return out
}

var _ env.Node = (*testNode)(nil)

func makeCluster(t *testing.T, n int, link sim.LinkModel, mode AtomicMode, relay bool, seed int64) (*sim.Cluster, []*testNode) {
	t.Helper()
	c := sim.NewCluster(n, link, seed)
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		node := &testNode{}
		node.st = New(c.Runtime(message.SiteID(i)), Config{
			Deliver: func(d Delivery) { node.got = append(node.got, d) },
			Atomic:  mode,
			Relay:   relay,
		})
		nodes[i] = node
		c.Bind(message.SiteID(i), node)
	}
	c.Start()
	return c, nodes
}

func payload(site, i int) *message.WriteReq {
	return &message.WriteReq{
		Txn:   message.TxnID{Site: message.SiteID(site), Seq: uint64(i)},
		OpSeq: i,
		Key:   message.Key(fmt.Sprintf("k%d-%d", site, i)),
	}
}

func runIdle(t *testing.T, c *sim.Cluster) {
	t.Helper()
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestReliableAllDeliverExactlyOnce(t *testing.T) {
	const n, per = 5, 20
	c, nodes := makeCluster(t, n, netsim.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}, AtomicSequencer, false, 1)
	for s := 0; s < n; s++ {
		s := s
		for i := 1; i <= per; i++ {
			i := i
			c.Schedule(time.Duration(i)*time.Millisecond, func() {
				nodes[s].st.Broadcast(message.ClassReliable, payload(s, i))
			})
		}
	}
	runIdle(t, c)
	for si, node := range nodes {
		if len(node.got) != n*per {
			t.Fatalf("site %d delivered %d, want %d", si, len(node.got), n*per)
		}
		seen := make(map[string]bool)
		for _, d := range node.got {
			k := fmt.Sprintf("%v/%d", d.Origin, d.Seq)
			if seen[k] {
				t.Fatalf("site %d delivered %s twice", si, k)
			}
			seen[k] = true
			if d.Class != message.ClassReliable {
				t.Fatalf("site %d wrong class %v", si, d.Class)
			}
		}
	}
}

func TestReliableRelayMasksLoss(t *testing.T) {
	const n, per = 6, 40
	lossy := netsim.Lossy{Inner: netsim.Fixed{Delay: time.Millisecond}, P: 0.25}
	count := func(relay bool) int {
		c, nodes := makeCluster(t, n, lossy, AtomicSequencer, relay, 7)
		for s := 0; s < n; s++ {
			s := s
			for i := 1; i <= per; i++ {
				i := i
				c.Schedule(time.Duration(i)*time.Millisecond, func() {
					nodes[s].st.Broadcast(message.ClassReliable, payload(s, i))
				})
			}
		}
		runIdle(t, c)
		total := 0
		for _, node := range nodes {
			total += len(node.got)
		}
		return total
	}
	without := count(false)
	with := count(true)
	if with <= without {
		t.Fatalf("relay did not improve delivery: with=%d without=%d", with, without)
	}
	// With p=0.25 loss and a single relay round, the chance a remote site
	// misses a message is roughly 0.25^(1+relayers); expect near-complete
	// delivery.
	want := n * n * per
	if float64(with) < 0.99*float64(want) {
		t.Fatalf("relay delivery too low: %d of %d", with, want)
	}
}

// TestCausalChain builds an explicit causal chain across sites: site k
// broadcasts its message only after delivering site k-1's. Every site must
// deliver the chain in order even though network latencies would reorder
// the raw messages.
func TestCausalChain(t *testing.T) {
	const n = 5
	// Make later hops much faster than early ones to force reordering at
	// the network level.
	link := netsim.Uniform{Min: time.Millisecond, Max: 50 * time.Millisecond}
	c, nodes := makeCluster(t, n, link, AtomicSequencer, false, 11)
	const chainLen = n
	for i := range nodes {
		i := i
		orig := nodes[i].st.cfg.Deliver
		nodes[i].st.cfg.Deliver = func(d Delivery) {
			orig(d)
			if wr, ok := d.Payload.(*message.WriteReq); ok && int(wr.Txn.Site) == i-1 && d.Origin == message.SiteID(i-1) {
				// Continue the chain.
				nodes[i].st.Broadcast(message.ClassCausal, payload(i, int(wr.OpSeq)))
			}
		}
	}
	c.Schedule(0, func() { nodes[0].st.Broadcast(message.ClassCausal, payload(0, 1)) })
	runIdle(t, c)
	for si, node := range nodes {
		if len(node.got) != chainLen {
			t.Fatalf("site %d delivered %d, want %d", si, len(node.got), chainLen)
		}
		for j, d := range node.got {
			if d.Origin != message.SiteID(j) {
				t.Fatalf("site %d: chain position %d delivered from %v", si, j, d.Origin)
			}
		}
	}
}

// TestCausalNoPredecessorSkipped floods the cluster with reactive
// broadcasts and checks the causal delivery condition directly: a delivered
// message's clock must be dominated by the receiver's delivered set.
func TestCausalVCConsistency(t *testing.T) {
	const n, per = 4, 30
	c, nodes := makeCluster(t, n, netsim.Uniform{Min: time.Millisecond, Max: 30 * time.Millisecond}, AtomicSequencer, false, 13)
	for s := 0; s < n; s++ {
		s := s
		for i := 1; i <= per; i++ {
			i := i
			c.Schedule(time.Duration(i*2)*time.Millisecond, func() {
				nodes[s].st.Broadcast(message.ClassCausal, payload(s, i))
			})
		}
	}
	runIdle(t, c)
	for si, node := range nodes {
		if len(node.got) != n*per {
			t.Fatalf("site %d delivered %d, want %d", si, len(node.got), n*per)
		}
		delivered := make([]uint64, n)
		for _, d := range node.got {
			for peer := 0; peer < n; peer++ {
				limit := delivered[peer]
				if peer == int(d.Origin) {
					limit++
				}
				if d.VC.Get(peer) > limit {
					t.Fatalf("site %d: delivered %v/%d with VC %v but only %d delivered from %d",
						si, d.Origin, d.Seq, d.VC, delivered[peer], peer)
				}
			}
			delivered[d.Origin]++
		}
	}
}

func totalOrderTest(t *testing.T, mode AtomicMode) {
	t.Helper()
	const n, per = 5, 30
	c, nodes := makeCluster(t, n, netsim.Uniform{Min: time.Millisecond, Max: 25 * time.Millisecond}, mode, false, 17)
	for s := 0; s < n; s++ {
		s := s
		for i := 1; i <= per; i++ {
			i := i
			c.Schedule(time.Duration(i*3)*time.Millisecond, func() {
				nodes[s].st.Broadcast(message.ClassAtomic, payload(s, i))
			})
		}
	}
	runIdle(t, c)
	var ref []string
	for si, node := range nodes {
		if len(node.got) != n*per {
			t.Fatalf("site %d delivered %d, want %d", si, len(node.got), n*per)
		}
		var seqn []string
		for i, d := range node.got {
			if d.Index != uint64(i+1) {
				t.Fatalf("site %d: delivery %d has index %d", si, i, d.Index)
			}
			seqn = append(seqn, fmt.Sprintf("%v/%d", d.Origin, d.Seq))
		}
		if si == 0 {
			ref = seqn
			continue
		}
		for i := range ref {
			if seqn[i] != ref[i] {
				t.Fatalf("site %d diverges at position %d: %s vs %s", si, i, seqn[i], ref[i])
			}
		}
	}
}

func TestAtomicSequencerTotalOrder(t *testing.T) { totalOrderTest(t, AtomicSequencer) }

func TestAtomicIsisTotalOrder(t *testing.T) { totalOrderTest(t, AtomicIsis) }

// TestAtomicLocalDeliveryWaitsForOrder verifies the origin does not deliver
// its own atomic broadcast before the order is assigned.
func TestAtomicLocalDeliveryWaitsForOrder(t *testing.T) {
	c, nodes := makeCluster(t, 3, netsim.Fixed{Delay: 5 * time.Millisecond}, AtomicSequencer, false, 19)
	c.Schedule(0, func() {
		nodes[2].st.Broadcast(message.ClassAtomic, payload(2, 1))
		if len(nodes[2].got) != 0 {
			t.Errorf("origin delivered its own atomic broadcast before ordering")
		}
	})
	runIdle(t, c)
	if len(nodes[2].got) != 1 {
		t.Fatalf("origin delivered %d messages, want 1", len(nodes[2].got))
	}
}

// TestSequencerFailover crashes the sequencer mid-stream; after the member
// set shrinks and the new sequencer takes over, the survivors must converge
// on a single order for the surviving messages. The sequencer is the leader
// orderer with a one-message budget, so every announcement carries exactly
// one entry — the handoff's too, which announces the orphans one by one in
// (origin, seq) order whatever order they arrived in.
func TestSequencerFailover(t *testing.T) {
	const n = 4
	c, nodes := makeCluster(t, n, netsim.Fixed{Delay: 2 * time.Millisecond}, AtomicSequencer, false, 23)
	members := []message.SiteID{0, 1, 2, 3}
	for _, node := range nodes {
		node.st.cfg.Members = func() []message.SiteID { return members }
	}
	c.Schedule(0, func() { nodes[1].st.Broadcast(message.ClassAtomic, payload(1, 1)) })
	c.Schedule(10*time.Millisecond, func() { c.Crash(0) })
	c.Schedule(12*time.Millisecond, func() {
		// Broadcasts while the dead sequencer is still in the view: they
		// stay pending at the survivors.
		nodes[3].st.Broadcast(message.ClassAtomic, payload(3, 1))
		nodes[2].st.Broadcast(message.ClassAtomic, payload(2, 1))
		nodes[2].st.Broadcast(message.ClassAtomic, payload(2, 2))
	})
	c.Schedule(30*time.Millisecond, func() {
		members = []message.SiteID{1, 2, 3}
		for i := 1; i < n; i++ {
			nodes[i].st.OnViewChange()
		}
	})
	runIdle(t, c)
	want := []string{"s1/1", "s2/1", "s2/2", "s3/1"}
	for si := 1; si < n; si++ {
		node := nodes[si]
		if got := node.deliveredOrder(); !slices.Equal(got, want) {
			t.Fatalf("site %d delivered %v, want %v", si, got, want)
		}
		for _, a := range node.orders {
			if len(a.ord.Entries) != 1 {
				t.Fatalf("site %d got a SeqOrder from %v with %d entries, want 1", si, a.from, len(a.ord.Entries))
			}
		}
		if si == 1 {
			continue // the new sequencer announces to the others
		}
		if got := len(node.announcedBy(1)); got != 3 {
			t.Fatalf("site %d got %d handoff announcements from the new sequencer, want 3", si, got)
		}
	}
}

// TestBroadcastReturnsSeq checks that per-class sequence numbers are dense
// and start at one — protocol C's implicit acks depend on it.
func TestBroadcastReturnsSeq(t *testing.T) {
	c, nodes := makeCluster(t, 2, netsim.Fixed{Delay: time.Millisecond}, AtomicSequencer, false, 29)
	c.Schedule(0, func() {
		for i := 1; i <= 5; i++ {
			if got := nodes[0].st.Broadcast(message.ClassCausal, payload(0, i)); got != uint64(i) {
				t.Errorf("broadcast %d returned seq %d", i, got)
			}
		}
		if got := nodes[0].st.Broadcast(message.ClassReliable, payload(0, 99)); got != 1 {
			t.Errorf("reliable seq should be independent, got %d", got)
		}
	})
	runIdle(t, c)
}

// TestCausalSelfDeliveryImmediate confirms local causal delivery happens
// synchronously at broadcast time (the home site processes its own write
// before the call returns).
func TestCausalSelfDeliveryImmediate(t *testing.T) {
	c, nodes := makeCluster(t, 3, netsim.Fixed{Delay: time.Millisecond}, AtomicSequencer, false, 31)
	c.Schedule(0, func() {
		nodes[0].st.Broadcast(message.ClassCausal, payload(0, 1))
		if len(nodes[0].got) != 1 {
			t.Errorf("self delivery not immediate: %d", len(nodes[0].got))
		}
	})
	runIdle(t, c)
}

// TestRetransmitFollowsSkipTo: the retransmission history restarts where
// SkipTo lands. A donor that restarted from a checkpoint at 99 retains only
// what it delivered since (100, 101, ...); a request from below that suffix
// must get 0 — "ask for a state transfer" — not a partial resend that
// leaves the requester's gap open for a whole retention window. The same
// holds for a site that skips ahead in mid-life: what it retained before
// the jump no longer joins up with what it will retain after it.
func TestRetransmitFollowsSkipTo(t *testing.T) {
	c, nodes := makeCluster(t, 3, netsim.Fixed{Delay: time.Millisecond}, AtomicSequencer, false, 53)
	for _, nd := range nodes {
		nd.st.SkipTo(100)
	}
	for i := 1; i <= 3; i++ {
		i := i
		c.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			nodes[1].st.Broadcast(message.ClassAtomic, payload(1, i))
		})
	}
	runIdle(t, c)
	donor := nodes[0].st
	if got := donor.NextAtomicIndex(); got != 103 {
		t.Fatalf("donor next index = %d, want 103 (delivered 100..102)", got)
	}
	c.Schedule(0, func() {
		if sent := donor.Retransmit(2, 50); sent != 0 {
			t.Errorf("retransmit from 50, below the suffix retained since the restart, sent %d, want 0", sent)
		}
		if sent := donor.Retransmit(2, 99); sent != 0 {
			t.Errorf("retransmit from 99 sent %d, want 0", sent)
		}
		if sent := donor.Retransmit(2, 101); sent != 2 {
			t.Errorf("retransmit from 101 sent %d, want 2", sent)
		}
	})
	runIdle(t, c)

	donor.SkipTo(500)
	c.Schedule(0, func() {
		if sent := donor.Retransmit(2, 101); sent != 0 {
			t.Errorf("retransmit from before a mid-life skip sent %d, want 0", sent)
		}
	})
	runIdle(t, c)
	if len(donor.history) != 0 {
		t.Fatalf("history holds %d entries from before the skip", len(donor.history))
	}
}
