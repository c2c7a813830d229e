package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/message"
)

// fixedLink is a constant-latency loss-free link model for tests.
type fixedLink struct{ d time.Duration }

func (f fixedLink) Latency(_, _ message.SiteID, _ int, _ *rand.Rand) (time.Duration, bool) {
	return f.d, false
}

// jitterLink has random latency in [min,max).
type jitterLink struct{ min, max time.Duration }

func (j jitterLink) Latency(_, _ message.SiteID, _ int, r *rand.Rand) (time.Duration, bool) {
	return j.min + time.Duration(r.Int63n(int64(j.max-j.min))), false
}

// echoNode records received messages with their arrival time.
type echoNode struct {
	rt      env.Runtime
	started bool
	got     []message.Message
	from    []message.SiteID
	at      []time.Duration
}

func (n *echoNode) Start() { n.started = true }
func (n *echoNode) Receive(from message.SiteID, m message.Message) {
	n.got = append(n.got, m)
	n.from = append(n.from, from)
	n.at = append(n.at, n.rt.Now())
}

func newEcho(c *Cluster, id message.SiteID) *echoNode {
	n := &echoNode{rt: c.Runtime(id)}
	c.Bind(id, n)
	return n
}

func hb(id message.SiteID) *message.Heartbeat { return &message.Heartbeat{From: id} }

func TestStartRunsOnce(t *testing.T) {
	c := NewCluster(2, fixedLink{time.Millisecond}, 1)
	a, b := newEcho(c, 0), newEcho(c, 1)
	c.Start()
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !a.started || !b.started {
		t.Fatal("nodes not started")
	}
}

func TestSendDeliversWithLatency(t *testing.T) {
	c := NewCluster(2, fixedLink{5 * time.Millisecond}, 1)
	newEcho(c, 0)
	b := newEcho(c, 1)
	c.Start()
	c.Schedule(0, func() { c.Runtime(0).Send(1, hb(0)) })
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 || b.from[0] != 0 {
		t.Fatalf("delivery wrong: %v from %v", b.got, b.from)
	}
	if b.at[0] != 5*time.Millisecond {
		t.Fatalf("arrival at %v, want 5ms", b.at[0])
	}
}

func TestFIFOPerSenderEvenWithJitter(t *testing.T) {
	c := NewCluster(2, jitterLink{time.Millisecond, 50 * time.Millisecond}, 42)
	newEcho(c, 0)
	b := newEcho(c, 1)
	c.Start()
	const n = 100
	c.Schedule(0, func() {
		for i := 0; i < n; i++ {
			c.Runtime(0).Send(1, &message.Heartbeat{From: 0, ViewID: uint64(i)})
		}
	})
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != n {
		t.Fatalf("got %d messages, want %d", len(b.got), n)
	}
	for i, m := range b.got {
		if m.(*message.Heartbeat).ViewID != uint64(i) {
			t.Fatalf("message %d out of order: %v", i, m)
		}
	}
}

func TestCrashDropsDeliveriesAndTimers(t *testing.T) {
	c := NewCluster(2, fixedLink{time.Millisecond}, 1)
	newEcho(c, 0)
	b := newEcho(c, 1)
	c.Start()
	fired := false
	c.Schedule(0, func() {
		c.Runtime(1).SetTimer(10*time.Millisecond, func() { fired = true })
	})
	c.Schedule(5*time.Millisecond, func() { c.Crash(1) })
	c.Schedule(6*time.Millisecond, func() { c.Runtime(0).Send(1, hb(0)) })
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 0 {
		t.Fatal("crashed site received a message")
	}
	if fired {
		t.Fatal("crashed site's timer fired")
	}
	if !c.Crashed(1) {
		t.Fatal("Crashed(1) = false")
	}
}

func TestRecoverResumesDelivery(t *testing.T) {
	c := NewCluster(2, fixedLink{time.Millisecond}, 1)
	newEcho(c, 0)
	b := newEcho(c, 1)
	c.Start()
	c.Schedule(0, func() { c.Crash(1) })
	c.Schedule(time.Millisecond, func() { c.Runtime(0).Send(1, hb(0)) }) // lost
	c.Schedule(10*time.Millisecond, func() { c.Recover(1) })
	c.Schedule(11*time.Millisecond, func() { c.Runtime(0).Send(1, hb(0)) }) // delivered
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 {
		t.Fatalf("got %d messages, want 1", len(b.got))
	}
}

// TestTimerDiesWithItsIncarnation: a timer armed before a crash whose time
// falls after the recovery must not fire — it would run the dead node's
// code, which sends as the restarted site through the shared runtime. A
// timer the restarted site arms itself fires as usual.
func TestTimerDiesWithItsIncarnation(t *testing.T) {
	c := NewCluster(2, fixedLink{time.Millisecond}, 1)
	newEcho(c, 0)
	newEcho(c, 1)
	c.Start()
	stale, fresh := false, false
	c.Schedule(0, func() { c.Runtime(1).SetTimer(100*time.Millisecond, func() { stale = true }) })
	c.Schedule(10*time.Millisecond, func() { c.Crash(1) })
	c.Schedule(20*time.Millisecond, func() {
		c.Recover(1)
		c.Runtime(1).SetTimer(100*time.Millisecond, func() { fresh = true })
	})
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Fatal("a timer armed before the crash fired after the recovery")
	}
	if !fresh {
		t.Fatal("the restarted site's own timer did not fire")
	}
}

// TestOffloadIsOneDiskPerSite: work runs before Offload returns, the
// completions of one site follow each other a sync latency apart (another
// site's disk is its own), and a completion still pending when its site
// crashes never runs, restart or not.
func TestOffloadIsOneDiskPerSite(t *testing.T) {
	c := NewCluster(2, fixedLink{time.Millisecond}, 1)
	var done []string
	job := func(site int, name string) {
		ran := false
		c.sites[site].Offload(func() { ran = true }, func() {
			done = append(done, fmt.Sprintf("%s@%v", name, c.Now()))
		})
		if !ran {
			t.Fatalf("%s: work had not run when Offload returned", name)
		}
	}
	c.Schedule(0, func() { job(0, "a"); job(0, "b"); job(1, "c") })
	c.Schedule(12*time.Millisecond, func() { job(1, "lost") })
	c.Schedule(13*time.Millisecond, func() { c.Crash(1) })
	c.Schedule(14*time.Millisecond, func() { c.Recover(1) })
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(done), "[a@5ms c@5ms b@10ms]"; got != want {
		t.Fatalf("completions %v, want %v", got, want)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	c := NewCluster(3, fixedLink{time.Millisecond}, 1)
	newEcho(c, 0)
	b := newEcho(c, 1)
	e := newEcho(c, 2)
	c.Start()
	c.Partition([]message.SiteID{0}, []message.SiteID{1, 2})
	c.Schedule(0, func() {
		c.Runtime(0).Send(1, hb(0)) // cross partition: dropped
		c.Runtime(2).Send(1, hb(2)) // same partition: delivered
	})
	c.Schedule(5*time.Millisecond, func() { c.Heal() })
	c.Schedule(6*time.Millisecond, func() { c.Runtime(0).Send(2, hb(0)) })
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 || b.from[0] != 2 {
		t.Fatalf("partitioned deliveries wrong: %v", b.from)
	}
	if len(e.got) != 1 || e.from[0] != 0 {
		t.Fatalf("healed delivery missing: %v", e.from)
	}
	st := c.Stats()
	if st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
}

func TestTimerCancel(t *testing.T) {
	c := NewCluster(1, fixedLink{time.Millisecond}, 1)
	newEcho(c, 0)
	c.Start()
	fired := false
	c.Schedule(0, func() {
		id := c.Runtime(0).SetTimer(5*time.Millisecond, func() { fired = true })
		c.Runtime(0).CancelTimer(id)
		c.Runtime(0).CancelTimer(0)    // no-op
		c.Runtime(0).CancelTimer(9999) // unknown: ignored
	})
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]time.Duration, NetStats) {
		c := NewCluster(3, jitterLink{time.Millisecond, 20 * time.Millisecond}, 99)
		newEcho(c, 0)
		b := newEcho(c, 1)
		newEcho(c, 2)
		c.Start()
		for i := 0; i < 50; i++ {
			i := i
			c.Schedule(time.Duration(i)*time.Millisecond, func() {
				c.Runtime(message.SiteID(i%3)).Send(1, hb(message.SiteID(i%3)))
			})
		}
		if _, err := c.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return b.at, c.Stats()
	}
	at1, st1 := run()
	at2, st2 := run()
	if len(at1) != len(at2) {
		t.Fatalf("lengths differ: %d vs %d", len(at1), len(at2))
	}
	for i := range at1 {
		if at1[i] != at2[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, at1[i], at2[i])
		}
	}
	if st1.Messages != st2.Messages || st1.Bytes != st2.Bytes {
		t.Fatalf("stats differ: %+v vs %+v", st1, st2)
	}
}

func TestRunUntilBound(t *testing.T) {
	c := NewCluster(1, fixedLink{time.Millisecond}, 1)
	newEcho(c, 0)
	c.Start()
	hit := 0
	var rearm func()
	rearm = func() {
		hit++
		c.Runtime(0).SetTimer(time.Second, rearm)
	}
	c.Schedule(0, rearm)
	if _, err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if hit < 10 || hit > 11 {
		t.Fatalf("timer fired %d times in 10s", hit)
	}
	if c.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", c.Now())
	}
}

func TestMaxEventsBackstop(t *testing.T) {
	c := NewCluster(1, fixedLink{0}, 1)
	newEcho(c, 0)
	c.MaxEvents = 100
	var loop func()
	loop = func() { c.Schedule(0, loop) }
	c.Schedule(0, loop)
	if _, err := c.RunUntilIdle(); err == nil {
		t.Fatal("expected MaxEvents error")
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewCluster(2, fixedLink{time.Millisecond}, 1)
	newEcho(c, 0)
	newEcho(c, 1)
	c.Start()
	c.Schedule(0, func() {
		c.Runtime(0).Send(1, hb(0))
		c.Runtime(0).Send(1, &message.Bcast{Class: message.ClassReliable, Origin: 0, Seq: 1, Payload: &message.VoteReq{}})
	})
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Messages != 2 {
		t.Fatalf("messages = %d", st.Messages)
	}
	if st.ByKind[message.KindHeartbeat] != 1 || st.ByKind[message.KindBcast] != 1 {
		t.Fatalf("by-kind wrong: %v", st.ByKind)
	}
	if st.ByPayload[message.KindVoteReq] != 1 {
		t.Fatalf("by-payload wrong: %v", st.ByPayload)
	}
	c.ResetStats()
	if c.Stats().Messages != 0 {
		t.Fatal("reset did not zero counters")
	}
}

func TestOnDeliverHook(t *testing.T) {
	c := NewCluster(2, fixedLink{time.Millisecond}, 1)
	newEcho(c, 0)
	newEcho(c, 1)
	type obs struct {
		from, to message.SiteID
		kind     message.Kind
		at       time.Duration
	}
	var seen []obs
	c.OnDeliver = func(from, to message.SiteID, m message.Message, at time.Duration) {
		seen = append(seen, obs{from, to, m.Kind(), at})
	}
	c.Start()
	c.Schedule(0, func() { c.Runtime(0).Send(1, hb(0)) }) // arrives at 1ms
	c.Schedule(2*time.Millisecond, func() { c.Crash(1) })
	c.Schedule(3*time.Millisecond, func() { c.Runtime(0).Send(1, hb(0)) }) // dropped: crashed
	if _, err := c.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("hook observed %d deliveries, want 1 (crash drops are not deliveries)", len(seen))
	}
	if seen[0].from != 0 || seen[0].to != 1 || seen[0].kind != message.KindHeartbeat || seen[0].at != time.Millisecond {
		t.Fatalf("hook observed %+v", seen[0])
	}
}
