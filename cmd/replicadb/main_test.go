package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/core"
	"repro/internal/livenet"
	"repro/internal/message"
	"repro/internal/shard"
	"repro/internal/trace"
)

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("0=127.0.0.1:7000, 2=host:7002,5=:7005")
	if err != nil {
		t.Fatal(err)
	}
	want := map[message.SiteID]string{0: "127.0.0.1:7000", 2: "host:7002", 5: ":7005"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for id, addr := range want {
		if got[id] != addr {
			t.Fatalf("peer %v = %q, want %q", id, got[id], addr)
		}
	}
	for _, bad := range []string{"", "0:missing-eq", "x=addr"} {
		if _, err := parsePeers(bad); err == nil {
			t.Fatalf("parsePeers(%q) should fail", bad)
		}
	}
}

// TestRestartWithoutCheckpointFlagsRecoversEveryKey: a site that took a
// checkpoint — which truncated the log segments it covered — and restarts
// without any -checkpoint-* flag must still come back with every key and
// its applied index, under full replication and for a sharded group's g<N>/
// directory alike. Replaying the surviving segments alone rebuilds only the
// keys written after the checkpoint.
func TestRestartWithoutCheckpointFlagsRecoversEveryKey(t *testing.T) {
	ring, err := shard.NewRing(shard.Config{Groups: 2, RF: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const segBytes, before, after = 128, 20, 3
	for _, tc := range []struct {
		name string
		ring *shard.Ring
	}{{"full", nil}, {"group", ring}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// First life: checkpointing on, tiny segments.
			var cfg core.Config
			site, err := recoverSite(&cfg, dir, tc.ring, 0, segBytes, checkpoint.Policy{Interval: time.Hour, Retain: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(site) != 1 || site[0].ckpt.Dir == "" {
				t.Fatalf("first boot recovered %d directories, policy %+v", len(site), site[0].ckpt)
			}
			st := site[0].store
			commit := func(i int) {
				if err := st.Apply(message.TxnID{Site: 0, Seq: uint64(i)},
					[]message.KV{{Key: message.Key(fmt.Sprintf("k%02d", i)), Value: message.Value("v")}}, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= before; i++ {
				commit(i)
			}
			cp := checkpoint.NewCheckpointer(site[0].ckpt, checkpoint.Source{
				Capture: func() *checkpoint.Checkpoint {
					return &checkpoint.Checkpoint{Applied: st.Applied(), Entries: st.Snapshot()}
				},
			}, checkpoint.Runtime{})
			if cp.Run() == "" || cp.Stats().SegmentsTruncated == 0 {
				t.Fatalf("checkpoint truncated nothing: %+v", cp.Stats())
			}
			for i := before + 1; i <= before+after; i++ {
				commit(i)
			}
			if err := site[0].wal.Close(); err != nil {
				t.Fatal(err)
			}

			// Second life: no checkpoint trigger flags.
			var cfg2 core.Config
			site, err = recoverSite(&cfg2, dir, tc.ring, 0, segBytes, checkpoint.Policy{})
			if err != nil {
				t.Fatal(err)
			}
			defer site[0].wal.Close()
			got := cfg2.InitialStore
			if tc.ring != nil {
				got = cfg2.GroupInitialStore(0)
			}
			if got != site[0].store || site[0].ckpt.Enabled() {
				t.Fatalf("restart wiring: store %p vs %p, policy %+v", got, site[0].store, site[0].ckpt)
			}
			if got.Len() != before+after || got.Applied() != before+after {
				t.Fatalf("restart recovered %d keys at applied index %d, want %d at %d",
					got.Len(), got.Applied(), before+after, before+after)
			}
		})
	}
}

// TestRecoverSiteRefusesSingleFileLog: -wal naming a plain file fails the
// boot with the command that migrates it.
func TestRecoverSiteRefusesSingleFileLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := recoverSite(&core.Config{}, path, nil, 0, 0, checkpoint.Policy{})
	if err == nil || !strings.Contains(err.Error(), "mkdir "+path+".d && mv "+path+" "+path+".d/wal-000001.seg") {
		t.Fatalf("err = %v, want the migration command", err)
	}
}

// fdDefaults is the failure handling run() wires from the -fd-* flag
// defaults: at every atomic site, and at a reliable, causal or baseline
// site only when -fd-interval is given.
var fdDefaults = core.Config{FailureInterval: 500 * time.Millisecond, FailureTimeout: 2500 * time.Millisecond}

func TestFailureIntervalDefault(t *testing.T) {
	const def = 500 * time.Millisecond
	for _, c := range []struct {
		proto string
		ival  time.Duration
		given bool
		want  time.Duration
	}{
		{"atomic", def, false, def},
		{"quorum", def, false, def}, // the engine ignores it
		{"reliable", def, false, 0},
		{"causal", def, false, 0},
		{"baseline", def, false, 0},
		{"causal", def, true, def},
		{"reliable", 30 * time.Millisecond, true, 30 * time.Millisecond},
		{"atomic", 0, true, 0},
	} {
		if got := failureInterval(c.proto, c.ival, c.given); got != c.want {
			t.Errorf("failureInterval(%s, %v, given=%v) = %v, want %v", c.proto, c.ival, c.given, got, c.want)
		}
	}
}

// newTestReplica boots an in-process causal cluster backing the client
// protocol handler, with tracing enabled at every site, failure handling
// as -fd-interval 500ms wires it, and checkpointing backed by a per-site
// temp WAL directory (so STATS exposes checkpoint counters).
func newTestReplica(t *testing.T, n int) []*replica {
	t.Helper()
	return bootReplicas(t, n, "causal", func(id message.SiteID, h *livenet.Host, tr *trace.Tracer) core.Engine {
		cfg := fdDefaults
		cfg.CausalHeartbeat, cfg.Tracer = 20*time.Millisecond, tr
		ckpt := checkpoint.Policy{Interval: 25 * time.Millisecond, Retain: 2}
		if _, err := recoverSite(&cfg, t.TempDir(), nil, id, 1<<20, ckpt); err != nil {
			t.Fatal(err)
		}
		return core.NewCausal(h, cfg)
	})
}

// bootReplicas starts an n-site cluster on loopback TCP, with a span tracer
// at every site and the engine build returns bound to each host.
func bootReplicas(t *testing.T, n int, proto string, build func(message.SiteID, *livenet.Host, *trace.Tracer) core.Engine) []*replica {
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
	replicas := make([]*replica, n)
	for i := 0; i < n; i++ {
		h, err := livenet.New(livenet.Config{ID: message.SiteID(i), Addrs: addrs, Listener: listeners[i]})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(message.SiteID(i), 1<<12, h.Now)
		h.SetTracer(tr)
		e := build(message.SiteID(i), h, tr)
		h.Bind(e)
		replicas[i] = &replica{host: h, engine: e, tracer: tr, proto: proto, sites: n}
	}
	for _, r := range replicas {
		if err := r.host.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			r.host.Close()
		}
	})
	return replicas
}

func TestClientProtocolExecute(t *testing.T) {
	rs := newTestReplica(t, 3)
	r0, r2 := rs[0], rs[2]

	if resp := r0.execute("SET a=1 b=2"); resp != "OK committed" {
		t.Fatalf("SET: %q", resp)
	}
	if resp := r0.execute("GET a b missing"); resp != "OK a=1 b=2 missing=<nil>" {
		t.Fatalf("GET: %q", resp)
	}
	resp := r0.execute("STATS")
	if !strings.HasPrefix(resp, "OK begun=") {
		t.Fatalf("STATS: %q", resp)
	}
	// Per-peer transport counters for every site (loopback included),
	// plus the checkpoint counters exposed when checkpointing is enabled.
	for _, want := range []string{
		"peer0=[", "peer1=[", "peer2=[", "bytes_sent=", "bytes_recv=", "connects=", "queue=", "batch=(",
		"ckpt_count=", "ckpt_index=", "ckpt_bytes=", "ckpt_age=",
		"segs_truncated=", "state_chunks=", "state_bytes=", "suspects=0",
	} {
		if !strings.Contains(resp, want) {
			t.Fatalf("STATS %q missing token %q", resp, want)
		}
	}
	// The interval checkpointer must eventually persist the committed state:
	// poll STATS until a checkpoint at a non-zero applied index appears.
	ckptDeadline := time.Now().Add(10 * time.Second)
	for {
		s := r0.execute("STATS")
		if strings.Contains(s, "ckpt_count=") && !strings.Contains(s, "ckpt_count=0 ") &&
			!strings.Contains(s, "ckpt_index=0 ") {
			break
		}
		if time.Now().After(ckptDeadline) {
			t.Fatalf("checkpoint never taken: %q", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Replication: the value becomes readable at another site.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := r2.execute("GET a")
		if resp == "OK a=1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote GET never converged: %q", resp)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// TRACE dumps the span ring as JSONL terminated by a lone ".".
	dump := r0.execute("TRACE")
	if !strings.HasSuffix(dump, "\n.") {
		t.Fatalf("TRACE response not terminated by lone '.': ...%q", dump[max(0, len(dump)-40):])
	}
	dumps, err := trace.ReadJSONL(strings.NewReader(strings.TrimSuffix(dump, ".")))
	if err != nil {
		t.Fatalf("TRACE output unparseable: %v", err)
	}
	if len(dumps) != 1 || dumps[0].Meta.Proto != "causal" || dumps[0].Meta.Sites != 3 {
		t.Fatalf("TRACE meta: %+v", dumps[0].Meta)
	}
	if len(dumps[0].Spans) == 0 {
		t.Fatal("TRACE dump has no spans")
	}
	// The committed SET's trace must include an outcome span at the home site.
	found := false
	for _, s := range dumps[0].Spans {
		if s.Kind == trace.KindOutcome && s.Extra == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("TRACE dump missing committed outcome span")
	}
	// Tracing disabled → clean error, not a panic.
	if resp := (&replica{}).execute("TRACE"); !strings.HasPrefix(resp, "ERR tracing disabled") {
		t.Fatalf("TRACE without tracer: %q", resp)
	}
	// Error paths.
	for _, bad := range []string{"", "GET", "SET", "SET noequals", "NOPE x"} {
		if resp := r0.execute(bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("execute(%q) = %q, want ERR", bad, resp)
		}
	}
}

// TestCommitMessageCount pins the shipped write paths over TCP: one
// 2-write commit at site 1 of an idle 3-site cluster, counted on the wire.
// Sites run the engine config each -proto gets from run(), with failure
// handling off (-fd-interval 0) so no heartbeats are counted.
//
//   - atomic: the write set rides the totally ordered commit request, so the
//     commit costs 2(n-1) = 4 messages (the request to each peer, the
//     sequencer's order to each peer) and no causal broadcast is ever
//     delivered. The paper's causal-write arm would send (w+2)(n-1) = 8.
//   - reliable: the write set travels in one batch, so the commit costs
//     2(n-1) for the batch and its acknowledgements, (n-1) vote requests
//     and n(n-1) votes: 12. The paper's per-operation arm sends 2w(n-1) for
//     the writes and their acknowledgements instead of 2(n-1): 16.
func TestCommitMessageCount(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		proto string
		build func(*livenet.Host, *trace.Tracer) core.Engine
		want  int64
	}{
		{"atomic", func(h *livenet.Host, tr *trace.Tracer) core.Engine {
			return core.NewAtomic(h, core.Config{
				AtomicMode:  broadcast.AtomicSequencer,
				GroupCommit: commitpipe.Policy{MaxBatch: 2},
				Tracer:      tr,
			})
		}, 2 * (n - 1)},
		{"reliable", func(h *livenet.Host, tr *trace.Tracer) core.Engine {
			return core.NewReliable(h, core.Config{
				GroupCommit: commitpipe.Policy{MaxBatch: 2},
				Tracer:      tr,
			})
		}, 2*(n-1) + (n - 1) + n*(n-1)},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			rs := bootReplicas(t, n, tc.proto, func(_ message.SiteID, h *livenet.Host, tr *trace.Tracer) core.Engine {
				return tc.build(h, tr)
			})
			if got := commitMessages(t, rs); got != tc.want {
				t.Fatalf("one 2-write commit sent %d messages, want %d", got, tc.want)
			}
			if tc.proto != "atomic" {
				return
			}
			for i, r := range rs {
				var causal int64
				r.host.Do(func() { causal = r.engine.(*core.AtomicEngine).Broadcasts()[message.ClassCausal] })
				if causal != 0 {
					t.Fatalf("site %d delivered %d causal broadcasts, want 0", i, causal)
				}
			}
		})
	}
}

// commitMessages warms the cluster up, lets it fall idle, then commits
// SET a=1 b=2 at site 1 and returns the messages the sites wrote to their
// peers meanwhile (the loopback entry, a site's delivery to itself,
// excluded).
func commitMessages(t *testing.T, rs []*replica) int64 {
	t.Helper()
	sent := func() int64 {
		var total int64
		for i, r := range rs {
			for _, ps := range r.host.PeerStats() {
				if ps.Peer != message.SiteID(i) {
					total += ps.Sent
				}
			}
		}
		return total
	}
	converged := func(key, val string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for _, r := range rs {
			for r.execute("GET "+key) != "OK "+key+"="+val {
				if time.Now().After(deadline) {
					t.Fatalf("%s=%s never reached every site", key, val)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	// Warm up: connections dialed, then an idle cluster.
	if resp := rs[1].execute("SET warm=1"); resp != "OK committed" {
		t.Fatalf("SET: %q", resp)
	}
	converged("warm", "1")
	time.Sleep(100 * time.Millisecond)
	before := sent()

	if resp := rs[1].execute("SET a=1 b=2"); resp != "OK committed" {
		t.Fatalf("SET: %q", resp)
	}
	converged("b", "2")
	time.Sleep(100 * time.Millisecond) // let a late frame reach the counters
	return sent() - before
}

// newShardedReplicas boots a 4-site partially replicated cluster (2 groups,
// RF 2) the way run() wires it: failure handling at the flag defaults,
// per-group WAL directories recovered by recoverSite, a ShardedEngine per
// site, and the client protocol on top.
func newShardedReplicas(t *testing.T) ([]*replica, *shard.Ring) {
	t.Helper()
	const n = 4
	scfg := &shard.Config{Groups: 2, RF: 2}
	ring, err := shard.NewRing(*scfg, n)
	if err != nil {
		t.Fatal(err)
	}
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
	replicas := make([]*replica, n)
	for i := 0; i < n; i++ {
		h, err := livenet.New(livenet.Config{ID: message.SiteID(i), Addrs: addrs, Listener: listeners[i]})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(message.SiteID(i), 1<<12, h.Now)
		h.SetTracer(tr)
		cfg := fdDefaults
		cfg.Tracer, cfg.Shard, cfg.GroupCommit = tr, scfg, commitpipe.Policy{MaxBatch: 2}
		ckpt := checkpoint.Policy{Interval: 25 * time.Millisecond, Retain: 2}
		if _, err := recoverSite(&cfg, t.TempDir(), ring, message.SiteID(i), 1<<20, ckpt); err != nil {
			t.Fatal(err)
		}
		se, err := core.NewSharded(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.Bind(se)
		replicas[i] = &replica{host: h, engine: se, sharded: se, tracer: tr, proto: "atomic", sites: n, groups: 2}
	}
	for _, r := range replicas {
		if err := r.host.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			r.host.Close()
		}
	})
	return replicas, ring
}

// TestShardedClientProtocol drives single-shard, forwarded, and cross-shard
// commits through the client protocol and checks the sharded STATS tokens
// and TRACE metadata.
func TestShardedClientProtocol(t *testing.T) {
	rs, ring := newShardedReplicas(t)
	keyIn := func(g message.GroupID, tag string) string {
		for i := 0; i < 10000; i++ {
			k := fmt.Sprintf("%s%d", tag, i)
			if ring.GroupOf(message.Key(k)) == g {
				return k
			}
		}
		t.Fatalf("no key in group %v", g)
		return ""
	}
	a, b := keyIn(0, "a"), keyIn(1, "b")
	// With the deterministic placement, group 0 lives at sites {0,1} and
	// group 1 at {2,3}: site 0 is a member for a, a non-member for b.
	r0, r2 := rs[0], rs[2]

	// Single-shard commit at a member, then a forwarded one from a non-member.
	if resp := r0.execute("SET " + a + "=1"); resp != "OK committed" {
		t.Fatalf("member SET: %q", resp)
	}
	if resp := r2.execute("SET " + a + "=2"); resp != "OK committed" {
		t.Fatalf("forwarded SET: %q", resp)
	}
	// Cross-shard commit touching both groups.
	if resp := r0.execute(fmt.Sprintf("SET %s=x %s=y", a, b)); resp != "OK committed" {
		t.Fatalf("cross-shard SET: %q", resp)
	}
	// Reads route by membership: a is readable at site 0, b is not.
	if resp := r0.execute("GET " + a); resp != "OK "+a+"=x" {
		t.Fatalf("local GET: %q", resp)
	}
	if resp := r0.execute("GET " + b); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("non-member GET should error: %q", resp)
	}
	// The cross-shard write converges at group 1's replicas.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := r2.execute("GET " + b)
		if resp == "OK "+b+"=y" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group-1 GET never converged: %q", resp)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// STATS exposes per-group progress and the cross-shard leak oracle.
	resp := r0.execute("STATS")
	for _, want := range []string{"g0_keys=", "g0_idx=", "pending_coord=0", "suspects=0", "orphaned_prepares=0", "ckpt_count="} {
		if !strings.Contains(resp, want) {
			t.Fatalf("STATS %q missing token %q", resp, want)
		}
	}
	if strings.Contains(resp, "g1_keys=") {
		t.Fatalf("STATS at a group-0 site reports group 1: %q", resp)
	}
	// TRACE carries the group count and the cross-shard coordination span.
	dump := r0.execute("TRACE")
	dumps, err := trace.ReadJSONL(strings.NewReader(strings.TrimSuffix(dump, ".")))
	if err != nil {
		t.Fatalf("TRACE output unparseable: %v", err)
	}
	if len(dumps) != 1 || dumps[0].Meta.Groups != 2 {
		t.Fatalf("TRACE meta: %+v", dumps[0].Meta)
	}
	foundCoord := false
	for _, s := range dumps[0].Spans {
		if s.Kind == trace.KindShardCoord {
			foundCoord = true
		}
	}
	if !foundCoord {
		t.Fatal("TRACE dump missing shard-coord span")
	}
}
