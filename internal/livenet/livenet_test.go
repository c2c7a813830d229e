package livenet

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/message"
	"repro/internal/trace"
)

// startCluster boots n engines of the given protocol on loopback TCP with
// ephemeral ports.
func startCluster(t *testing.T, n int, proto string) ([]*Host, []core.Engine) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make(map[message.SiteID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[message.SiteID(i)] = ln.Addr().String()
	}
	hosts := make([]*Host, n)
	engines := make([]core.Engine, n)
	for i := 0; i < n; i++ {
		h, err := New(Config{
			ID:       message.SiteID(i),
			Addrs:    addrs,
			Listener: listeners[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{}
		var e core.Engine
		switch proto {
		case "reliable":
			e = core.NewReliable(h, cfg)
		case "causal":
			cfg.CausalHeartbeat = 20 * time.Millisecond
			e = core.NewCausal(h, cfg)
		case "atomic":
			e = core.NewAtomic(h, cfg)
		case "baseline":
			e = core.NewBaseline(h, cfg)
		default:
			t.Fatalf("proto %q", proto)
		}
		h.Bind(e)
		hosts[i] = h
		engines[i] = e
	}
	for _, h := range hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Close()
		}
	})
	return hosts, engines
}

func TestTCPClusterEndToEnd(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "atomic", "baseline"} {
		t.Run(proto, func(t *testing.T) {
			hosts, engines := startCluster(t, 3, proto)
			res, err := ExecuteTxn(hosts[0], engines[0], TxnSpec{
				Writes: []message.KV{{Key: "k", Value: message.Value("over-tcp")}},
			}, 15*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed {
				t.Fatalf("aborted: %s", res.Reason)
			}
			// Replication is asynchronous at the remote sites; poll the
			// remote store through the event loop.
			deadline := time.Now().Add(10 * time.Second)
			for {
				var got string
				hosts[2].Do(func() {
					if rec, ok := engines[2].Store().Get("k"); ok {
						got = string(rec.Value)
					}
				})
				if got == "over-tcp" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("value never replicated to site 2 (last %q)", got)
				}
				time.Sleep(5 * time.Millisecond)
			}
			// A read-only transaction at the remote site must see it too.
			read, err := ExecuteTxn(hosts[2], engines[2], TxnSpec{
				ReadOnly: true,
				Reads:    []message.Key{"k"},
			}, 15*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !read.Committed || string(read.Values["k"]) != "over-tcp" {
				t.Fatalf("remote read: %+v", read)
			}
		})
	}
}

// TestTCPStitchedTrace commits one update transaction over TCP with tracing
// enabled at every site and checks the span streams stitch into a single
// trace: the home site records the committed outcome and every site —
// including the remotes — records spans keyed by the same transaction ID.
func TestTCPStitchedTrace(t *testing.T) {
	const n = 3
	listeners := make([]net.Listener, n)
	addrs := make(map[message.SiteID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[message.SiteID(i)] = ln.Addr().String()
	}
	hosts := make([]*Host, n)
	engines := make([]core.Engine, n)
	tracers := make([]*trace.Tracer, n)
	for i := 0; i < n; i++ {
		h, err := New(Config{ID: message.SiteID(i), Addrs: addrs, Listener: listeners[i]})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(message.SiteID(i), 1<<12, h.Now)
		h.SetTracer(tr)
		e := core.NewReliable(h, core.Config{Tracer: tr})
		h.Bind(e)
		hosts[i], engines[i], tracers[i] = h, e, tr
	}
	for _, h := range hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Close()
		}
	})

	res, err := ExecuteTxn(hosts[0], engines[0], TxnSpec{
		Writes: []message.KV{{Key: "tk", Value: message.Value("traced")}},
	}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %s", res.Reason)
	}

	// The home site's ring has the committed outcome span; its trace ID keys
	// the whole transaction.
	var id message.TxnID
	for _, s := range tracers[0].Spans() {
		if s.Kind == trace.KindOutcome && s.Extra == 1 {
			id = s.Trace
		}
	}
	if id.IsZero() {
		t.Fatal("home site recorded no committed outcome span")
	}

	// Remote spans arrive asynchronously with the broadcast; poll until every
	// site holds part of the trace.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sitesWith := 0
		kinds := make(map[trace.Kind]bool)
		for _, tr := range tracers {
			found := false
			for _, s := range tr.Spans() {
				if s.Trace == id {
					found = true
					kinds[s.Kind] = true
				}
			}
			if found {
				sitesWith++
			}
		}
		if sitesWith == n {
			// Protocol R's phases all show up somewhere in the stitched trace.
			for _, k := range []trace.Kind{trace.KindBegin, trace.KindWriteSend, trace.KindBcastDeliver,
				trace.KindAck, trace.KindVote, trace.KindApply, trace.KindOutcome, trace.KindNetRecv} {
				if !kinds[k] {
					t.Fatalf("stitched trace missing %v spans (have %v)", k, kinds)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %v only present at %d/%d sites", id, sitesWith, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	hosts, engines := startCluster(t, 3, "atomic")
	const perSite = 10
	errs := make(chan error, 3*perSite)
	for site := 0; site < 3; site++ {
		site := site
		go func() {
			for i := 0; i < perSite; i++ {
				key := message.Key(fmt.Sprintf("s%d-%d", site, i))
				res, err := ExecuteTxn(hosts[site], engines[site], TxnSpec{
					Writes: []message.KV{{Key: key, Value: message.Value("v")}},
				}, 15*time.Second)
				if err == nil && !res.Committed {
					err = fmt.Errorf("%s aborted: %s", key, res.Reason)
				}
				errs <- err
			}
		}()
	}
	for i := 0; i < 3*perSite; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Every site converges on all 30 keys.
	deadline := time.Now().Add(10 * time.Second)
	for site := 0; site < 3; site++ {
		for {
			count := 0
			hosts[site].Do(func() { count = engines[site].Store().Len() })
			if count >= 3*perSite {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("site %d has %d keys, want %d", site, count, 3*perSite)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestTCPCountersAndClose(t *testing.T) {
	hosts, engines := startCluster(t, 2, "causal")
	if _, err := ExecuteTxn(hosts[0], engines[0], TxnSpec{
		Writes: []message.KV{{Key: "x", Value: message.Value("1")}},
	}, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	sent, _, _ := hosts[0].Counters()
	if sent == 0 {
		t.Fatal("no messages sent")
	}
	// Per-peer stats cover every site (loopback included), consistently
	// with the host totals. Protocol C's heartbeat keeps sending, so compare
	// a snapshot taken while the (monotonic) total did not move.
	stats := hosts[0].PeerStats()
	for {
		after, _, _ := hosts[0].Counters()
		if after == sent {
			break
		}
		sent = after
		stats = hosts[0].PeerStats()
	}
	if len(stats) != 2 {
		t.Fatalf("PeerStats entries = %d, want 2", len(stats))
	}
	var perPeerSent int64
	for _, ps := range stats {
		perPeerSent += ps.Sent
		if ps.QueueCap == 0 {
			t.Fatalf("peer %v has no queue capacity: %s", ps.Peer, ps)
		}
		if ps.Peer != hosts[0].ID() && ps.Connects == 0 {
			t.Fatalf("peer %v never connected: %s", ps.Peer, ps)
		}
	}
	if perPeerSent != sent {
		t.Fatalf("per-peer sent sum %d != total %d", perPeerSent, sent)
	}
	if s := hosts[0].TransportSummary(); !strings.Contains(s, "peer1=[") {
		t.Fatalf("transport summary %q missing peer token", s)
	}
	hosts[0].Close()
	hosts[0].Close() // idempotent
	// Operations after close are inert, not panics.
	hosts[0].Do(func() { t.Fatal("Do ran after Close") })
}

// TestTCPSoakMixedLoad drives sustained concurrent mixed traffic through a
// 5-site atomic TCP cluster and verifies convergence and counter sanity —
// the live-network analogue of the simulator soak.
func TestTCPSoakMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak skipped in short mode")
	}
	hosts, engines := startCluster(t, 5, "atomic")
	const (
		clients = 6
		perConn = 15
	)
	errs := make(chan error, clients*perConn)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			site := c % 5
			for i := 0; i < perConn; i++ {
				key := message.Key(fmt.Sprintf("k%d", (c*perConn+i)%12))
				var spec TxnSpec
				if i%3 == 0 {
					spec = TxnSpec{ReadOnly: true, Reads: []message.Key{key}}
				} else {
					spec = TxnSpec{
						Reads:  []message.Key{key},
						Writes: []message.KV{{Key: key, Value: message.Value(fmt.Sprintf("c%d-%d", c, i))}},
					}
				}
				res, err := ExecuteTxn(hosts[site], engines[site], spec, 20*time.Second)
				if err != nil {
					errs <- err
					return
				}
				// Certification aborts are legitimate under contention.
				_ = res
				errs <- nil
			}
		}()
	}
	for i := 0; i < clients*perConn; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Convergence: all stores match site 0 for every key, eventually.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var refKeys int
		hosts[0].Do(func() { refKeys = engines[0].Store().Len() })
		matched := true
		for s := 1; s < 5 && matched; s++ {
			var n int
			hosts[s].Do(func() { n = engines[s].Store().Len() })
			if n != refKeys {
				matched = false
			}
		}
		if matched && refKeys > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stores never converged on key counts")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for site, h := range hosts {
		_, recv, dropped := h.Counters()
		if recv == 0 {
			t.Fatalf("site %d received nothing", site)
		}
		if dropped > 0 {
			t.Fatalf("site %d dropped %d messages under modest load", site, dropped)
		}
	}
}
