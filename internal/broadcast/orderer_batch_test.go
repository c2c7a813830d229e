package broadcast

import (
	"slices"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// makeBatchCluster is makeCluster with the batch orderer's knobs exposed.
func makeBatchCluster(t *testing.T, n int, link sim.LinkModel, seed int64, window time.Duration, maxMsgs int) (*sim.Cluster, []*testNode) {
	t.Helper()
	c := sim.NewCluster(n, link, seed)
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		node := &testNode{}
		node.st = New(c.Runtime(message.SiteID(i)), Config{
			Deliver:      func(d Delivery) { node.got = append(node.got, d) },
			Atomic:       AtomicBatch,
			BatchWindow:  window,
			BatchMaxMsgs: maxMsgs,
		})
		nodes[i] = node
		c.Bind(message.SiteID(i), node)
	}
	c.Start()
	return c, nodes
}

func TestAtomicBatchTotalOrder(t *testing.T) { totalOrderTest(t, AtomicBatch) }

// TestBatchBudgetSeal checks that a full message budget seals the batch
// immediately: with the window far beyond the run, only budget seals can
// order anything, so every broadcast must still deliver everywhere.
func TestBatchBudgetSeal(t *testing.T) {
	const n, per = 3, 8 // 3 origins x 8 = 24 broadcasts, budget 4 -> 6 instances
	c, nodes := makeBatchCluster(t, n, netsim.Fixed{Delay: time.Millisecond}, 29,
		time.Hour /* window never fires */, 4)
	for s := 0; s < n; s++ {
		s := s
		for i := 1; i <= per; i++ {
			i := i
			c.Schedule(time.Duration(i)*time.Millisecond, func() {
				nodes[s].st.Broadcast(message.ClassAtomic, payload(s, i))
			})
		}
	}
	// RunUntilIdle would wait out the hour-long timer; run just past the
	// schedule instead.
	if _, err := c.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for si, node := range nodes {
		if len(node.got) != n*per {
			t.Fatalf("site %d delivered %d, want %d (budget seal did not fire)", si, len(node.got), n*per)
		}
	}
}

// TestBatchByteBudgetSeal checks the byte budget: with the window far
// beyond the run and the message budget out of reach, only payloads adding up
// to batchMaxBytes can seal. Seven 10 KB writes cross it and six do not, so
// 21 broadcasts seal exactly three batches and every one delivers.
func TestBatchByteBudgetSeal(t *testing.T) {
	const n, per = 3, 7
	c, nodes := makeBatchCluster(t, n, netsim.Fixed{Delay: time.Millisecond}, 37,
		time.Hour /* window never fires */, 1<<20)
	for s := 0; s < n; s++ {
		s := s
		for i := 1; i <= per; i++ {
			i := i
			c.Schedule(time.Duration(i)*time.Millisecond, func() {
				w := payload(s, i)
				w.Value = make(message.Value, 10000)
				nodes[s].st.Broadcast(message.ClassAtomic, w)
			})
		}
	}
	if _, err := c.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for si, node := range nodes {
		if len(node.got) != n*per {
			t.Fatalf("site %d delivered %d, want %d (byte budget did not seal)", si, len(node.got), n*per)
		}
	}
	if got := len(nodes[1].announcedBy(0)); got != 3 {
		t.Fatalf("leader sealed %d batches, want 3", got)
	}
}

// TestBatchWindowSeal checks the complementary path: a batch smaller than
// any budget seals when the accumulation window expires.
func TestBatchWindowSeal(t *testing.T) {
	const window = 10 * time.Millisecond
	c, nodes := makeBatchCluster(t, 3, netsim.Fixed{Delay: time.Millisecond}, 31,
		window, 1<<20)
	c.Schedule(0, func() { nodes[1].st.Broadcast(message.ClassAtomic, payload(1, 1)) })
	// Well before the window could have expired at the leader, nothing may
	// be delivered anywhere.
	c.Schedule(5*time.Millisecond, func() {
		for si, node := range nodes {
			if len(node.got) != 0 {
				t.Errorf("site %d delivered %d messages before the window sealed", si, len(node.got))
			}
		}
	})
	runIdle(t, c)
	for si, node := range nodes {
		if len(node.got) != 1 {
			t.Fatalf("site %d delivered %d, want 1 after window seal", si, len(node.got))
		}
	}
}

// TestBatchLeaderFailover crashes the leader mid-stream; after the member
// set shrinks, the new leader must order everything buffered-but-unordered
// in an immediate handoff and the survivors must converge on one order.
// The handoff respects the message budget: five orphans under a budget of
// two seal three announcements.
func TestBatchLeaderFailover(t *testing.T) {
	const n = 4
	c, nodes := makeBatchCluster(t, n, netsim.Fixed{Delay: 2 * time.Millisecond}, 23, time.Millisecond, 2)
	members := []message.SiteID{0, 1, 2, 3}
	for _, node := range nodes {
		node.st.cfg.Members = func() []message.SiteID { return members }
	}
	c.Schedule(0, func() { nodes[1].st.Broadcast(message.ClassAtomic, payload(1, 1)) })
	c.Schedule(10*time.Millisecond, func() { c.Crash(0) })
	c.Schedule(12*time.Millisecond, func() {
		// Broadcasts while the dead leader is still in the view: they stay
		// pending at the survivors until the view changes.
		for i := 1; i <= 3; i++ {
			nodes[3].st.Broadcast(message.ClassAtomic, payload(3, i))
		}
		for i := 1; i <= 2; i++ {
			nodes[2].st.Broadcast(message.ClassAtomic, payload(2, i))
		}
	})
	c.Schedule(30*time.Millisecond, func() {
		members = []message.SiteID{1, 2, 3}
		for i := 1; i < n; i++ {
			nodes[i].st.OnViewChange()
		}
	})
	runIdle(t, c)
	ref := nodes[1].deliveredOrder()
	if len(ref) != 6 {
		t.Fatalf("site 1 delivered %v, want 6 messages", ref)
	}
	for si := 2; si < n; si++ {
		if got := nodes[si].deliveredOrder(); !slices.Equal(got, ref) {
			t.Fatalf("site %d diverges: %v vs %v", si, got, ref)
		}
		handoff := nodes[si].announcedBy(1)
		if len(handoff) != 3 {
			t.Fatalf("site %d got %d handoff announcements from the new leader, want 3", si, len(handoff))
		}
		for _, ord := range handoff {
			if len(ord.Entries) > 2 {
				t.Fatalf("site %d got a handoff announcement with %d entries over a budget of 2", si, len(ord.Entries))
			}
		}
	}
}

// TestAtomicOrderDeterminism drives the same 9-site workload under several
// seeded delivery schedules, in both ISIS and batch mode, and checks the two
// properties the engines rely on: every site in a run delivers the identical
// total order (agreement), and re-running the identical schedule reproduces
// the identical order (determinism). The order is allowed to differ BETWEEN
// seeds — both modes derive it from message arrival (Lamport proposals in
// ISIS, leader arrival order in batch), so distinct delivery schedules
// legitimately produce distinct agreed orders; what must never happen is two
// sites of one run, or two runs of one schedule, disagreeing.
func TestAtomicOrderDeterminism(t *testing.T) {
	const n, per = 9, 12
	run := func(mode AtomicMode, seed int64) []string {
		link := netsim.Uniform{Min: time.Millisecond, Max: 20 * time.Millisecond}
		c, nodes := makeCluster(t, n, link, mode, false, seed)
		for s := 0; s < n; s++ {
			s := s
			for i := 1; i <= per; i++ {
				i := i
				c.Schedule(time.Duration(i*2)*time.Millisecond, func() {
					nodes[s].st.Broadcast(message.ClassAtomic, payload(s, i))
				})
			}
		}
		runIdle(t, c)
		var ref []string
		for si, node := range nodes {
			if len(node.got) != n*per {
				t.Fatalf("mode=%d seed=%d site %d delivered %d, want %d", mode, seed, si, len(node.got), n*per)
			}
			seqn := node.deliveredOrder()
			if si == 0 {
				ref = seqn
				continue
			}
			for i := range ref {
				if seqn[i] != ref[i] {
					t.Fatalf("mode=%d seed=%d: site %d diverges from site 0 at position %d: %s vs %s",
						mode, seed, si, i, seqn[i], ref[i])
				}
			}
		}
		return ref
	}
	for _, mode := range []AtomicMode{AtomicIsis, AtomicBatch} {
		for _, seed := range []int64{1, 7, 42} {
			first := run(mode, seed)
			again := run(mode, seed)
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("mode=%d seed=%d not deterministic: rerun diverges at position %d: %s vs %s",
						mode, seed, i, first[i], again[i])
				}
			}
		}
	}
}
