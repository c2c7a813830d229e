package core

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sgraph"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestCheckpointKillRestartKillDurability is the end-to-end fault-injection
// proof for the checkpoint subsystem: site 2 runs with a real segmented WAL
// and an interval checkpointer that truncates it. The site is killed, its
// durable state recovered through checkpoint.Recover (checkpoint + WAL
// suffix), restarted with the recovered store and stack frontiers, caught up
// on the commits it missed via the chunked delta transfer, then "killed"
// again. No commit acknowledged before either kill may be missing from the
// recovered state — including the delta-transferred commits, which never
// touched site 2's WAL and are durable only through a post-rejoin
// checkpoint. Finally the post-rejoin trace window is fed through
// cmd/tracecheck: a rejoined site's traffic must satisfy every protocol-A
// invariant (identical certification order, full-cluster applies).
func TestCheckpointKillRestartKillDurability(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 256
	pol := checkpoint.Policy{Dir: dir, Interval: 150 * time.Millisecond, Retain: 2}

	link := netsim.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond}
	c := sim.NewCluster(3, link, 41)
	rec := sgraph.NewRecorder()
	cfg := failureCfg("atomic")
	cfg.Recorder = rec
	cfg.GroupCommit = commitpipe.Policy{MaxBatch: 2}
	// A retention window shorter than phase 2's commits: the ordered stream
	// carries every write, so retransmission alone would catch site 2 up,
	// and the gap must outrun the donors' history to reach the delta
	// transfer this test is about.
	cfg.HistoryRetention = 4
	tc := &testCluster{t: t, c: c, rec: rec}
	tracers := make([]*trace.Tracer, 3)
	for i := 0; i < 3; i++ {
		rt := c.Runtime(message.SiteID(i))
		siteCfg := cfg
		tracers[i] = trace.New(message.SiteID(i), 1<<14, rt.Now)
		siteCfg.Tracer = tracers[i]
		if i == 2 {
			w, err := storage.OpenSegments(dir, segBytes)
			if err != nil {
				t.Fatal(err)
			}
			siteCfg.WAL = w
			siteCfg.Checkpoint = pol
		}
		e := NewAtomic(rt, siteCfg)
		tc.engines = append(tc.engines, e)
		c.Bind(message.SiteID(i), e)
	}
	c.Start()

	// Phase 1: commits land everywhere, site 2's WAL and checkpoints absorb
	// them. All are acknowledged well before the kill at t=2s.
	var phase1 []*txResult
	for i := 0; i < 8; i++ {
		phase1 = append(phase1, tc.runTxn(time.Duration(100+i*150)*time.Millisecond,
			i%3, false, nil, []message.KV{{Key: message.Key(fmt.Sprintf("a%d", i)), Value: message.Value("v1")}}))
	}
	tc.c.Schedule(2*time.Second, func() { tc.c.Crash(2) })

	// Phase 2: commits while site 2 is down — these will reach it only via
	// the delta state transfer after restart, never via its own WAL.
	var phase2 []*txResult
	for i := 0; i < 6; i++ {
		phase2 = append(phase2, tc.runTxn(2200*time.Millisecond+time.Duration(i)*200*time.Millisecond,
			i%2, false, nil, []message.KV{{Key: message.Key(fmt.Sprintf("b%d", i)), Value: message.Value("v2")}}))
	}

	// Restart at t=5s: kill #1's recovery. The checkpoint plus WAL suffix
	// must reproduce every phase-1 commit, and the stack frontiers must ride
	// along so the site's send sequences resume.
	tc.c.Schedule(5*time.Second, func() {
		st, w2, info, err := checkpoint.Recover(dir, segBytes)
		if err != nil {
			t.Fatalf("recover after kill #1: %v", err)
		}
		if info.CheckpointIndex == 0 {
			t.Fatal("no checkpoint was written before kill #1")
		}
		if info.Stack == nil {
			t.Fatal("checkpoint did not carry the broadcast stack frontiers")
		}
		for i := 0; i < 8; i++ {
			key := message.Key(fmt.Sprintf("a%d", i))
			if v, ok := st.Get(key); !ok || string(v.Value) != "v1" {
				t.Fatalf("acked phase-1 write %s lost across kill #1: %q ok=%v", key, v.Value, ok)
			}
		}
		tc.c.Recover(2)
		rcfg := cfg
		rcfg.Tracer = tracers[2]
		rcfg.WAL = w2
		rcfg.InitialStore = st
		rcfg.InitialStack = info.Stack
		rcfg.Checkpoint = pol
		fresh := NewAtomic(tc.c.Runtime(2), rcfg)
		tc.engines[2] = fresh
		tc.c.Bind(2, fresh)
		fresh.Start()
	})

	// A survivor commit right after the restart: its ordered traffic is what
	// exposes the restarted site's gap and triggers catch-up.
	post := tc.runTxn(5500*time.Millisecond, 0, false, nil, []message.KV{kv("epoch", "post")})

	// Phase 3, after the rejoin has settled (the state transfer takes a few
	// simulated seconds): commits from every site, including the restarted
	// one — only possible once its send sequences resumed past the
	// pre-crash numbering. This window is the "rejoin trace" handed to
	// tracecheck below.
	const cutoff = 11 * time.Second
	var phase3 []*txResult
	for i := 0; i < 3; i++ {
		phase3 = append(phase3, tc.runTxn(cutoff+200*time.Millisecond+time.Duration(i)*300*time.Millisecond,
			i, false, nil, []message.KV{{Key: message.Key(fmt.Sprintf("c%d", i)), Value: message.Value("v3")}}))
	}
	from2 := tc.runTxn(cutoff+1500*time.Millisecond, 2, false, keys("epoch"), []message.KV{kv("from2", "hello")})
	tc.run(16 * time.Second)

	for i, r := range append(append(append([]*txResult{}, phase1...), phase2...), phase3...) {
		if !r.done || r.outcome != Committed {
			t.Fatalf("txn %d (site %d): done=%v outcome=%v reason=%v", i, r.site, r.done, r.outcome, r.reason)
		}
	}
	if !post.done || post.outcome != Committed {
		t.Fatalf("post-restart txn: %+v", post)
	}
	if !from2.done || from2.outcome != Committed {
		t.Fatalf("restarted site's own txn: done=%v outcome=%v reason=%v readErr=%v writeErr=%v",
			from2.done, from2.outcome, from2.reason, from2.readErr, from2.writeErr)
	}
	if string(from2.vals["epoch"]) != "post" {
		t.Fatalf("restarted site read epoch=%q, want \"post\"", from2.vals["epoch"])
	}

	// Everyone converged, including the delta-transferred phase-2 keys.
	allKeys := []message.Key{"epoch", "from2"}
	for i := 0; i < 8; i++ {
		allKeys = append(allKeys, message.Key(fmt.Sprintf("a%d", i)))
	}
	for i := 0; i < 6; i++ {
		allKeys = append(allKeys, message.Key(fmt.Sprintf("b%d", i)))
	}
	for i := 0; i < 3; i++ {
		allKeys = append(allKeys, message.Key(fmt.Sprintf("c%d", i)))
	}
	for _, key := range allKeys {
		ref, _ := tc.engines[0].Store().Get(key)
		for i := 1; i < 3; i++ {
			got, _ := tc.engines[i].Store().Get(key)
			if string(got.Value) != string(ref.Value) {
				t.Fatalf("site %d diverges on %q: %q vs %q", i, key, got.Value, ref.Value)
			}
		}
	}
	if err := tc.rec.Check(); err != nil {
		t.Fatalf("serializability: %v", err)
	}

	// The catch-up went through the chunked delta path, and the restarted
	// site's checkpointer kept truncating its WAL.
	chunks := tc.engines[0].Stats().StateChunksSent + tc.engines[1].Stats().StateChunksSent
	if chunks == 0 {
		t.Fatal("no snapshot chunks sent: the rejoin did not exercise the delta transfer")
	}
	cs := tc.engines[2].Checkpointer().Stats()
	if cs.Checkpoints == 0 || cs.SegmentsTruncated == 0 {
		t.Fatalf("restarted site's checkpointer idle: %+v", cs)
	}

	// Kill #2: recover the directory cold. The phase-2 writes reached site 2
	// only through MergeDelta — they are durable solely because a post-rejoin
	// checkpoint captured them. Every acked commit must be present.
	st3, w3, info2, err := checkpoint.Recover(dir, segBytes)
	if err != nil {
		t.Fatalf("recover after kill #2: %v", err)
	}
	defer w3.Close()
	if info2.CheckpointIndex == 0 {
		t.Fatal("no checkpoint survived to kill #2")
	}
	for _, key := range allKeys {
		ref, _ := tc.engines[0].Store().Get(key)
		got, ok := st3.Get(key)
		if !ok || string(got.Value) != string(ref.Value) {
			t.Fatalf("acked write %q lost across kill #2: got %q ok=%v want %q", key, got.Value, ok, ref.Value)
		}
	}

	// The rejoin trace window passes the offline invariant checker: post-
	// rejoin traffic is indistinguishable from a healthy cluster's.
	runTracecheckWindow(t, tracers, cutoff)
}

// runTracecheckWindow exports every span at or after cutoff as a JSONL dump
// and runs cmd/tracecheck over it, failing the test on any violation.
func runTracecheckWindow(t *testing.T, tracers []*trace.Tracer, cutoff time.Duration) {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range tracers {
		var kept []trace.Span
		for _, s := range tr.Spans() {
			if s.Start >= cutoff {
				kept = append(kept, s)
			}
		}
		meta := trace.Meta{Site: int32(tr.Site()), Proto: "atomic", Sites: len(tracers), AtomicMode: "sequencer"}
		if err := trace.WriteJSONL(&buf, meta, kept); err != nil {
			t.Fatal(err)
		}
	}
	tmp := t.TempDir()
	dump := filepath.Join(tmp, "rejoin.jsonl")
	if err := os.WriteFile(dump, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(tmp, "tracecheck")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tracecheck").CombinedOutput(); err != nil {
		t.Fatalf("build tracecheck: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, dump).CombinedOutput()
	if err != nil {
		t.Fatalf("tracecheck rejects the rejoin trace: %v\n%s", err, out)
	}
}
