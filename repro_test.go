package repro

import (
	"errors"
	"testing"
	"time"
)

func TestFacadeBasicFlow(t *testing.T) {
	for _, proto := range []Protocol{Reliable, Causal, Atomic, Baseline} {
		t.Run(string(proto), func(t *testing.T) {
			c, err := New(Options{Protocol: proto, Sites: 3, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Submit(0, NewTxn().Write("greeting", []byte("hello")))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed {
				t.Fatalf("write txn aborted: %s", res.Reason)
			}
			read, err := c.Submit(2, ReadOnlyTxn().Read("greeting"))
			if err != nil {
				t.Fatal(err)
			}
			if string(read.Values["greeting"]) != "hello" {
				t.Fatalf("read %q", read.Values["greeting"])
			}
			if v, ok := c.Get(1, "greeting"); !ok || string(v) != "hello" {
				t.Fatalf("Get: %q ok=%v", v, ok)
			}
			if err := c.Check(); err != nil {
				t.Fatal(err)
			}
			st := c.SiteStats(0)
			if st.Committed != 1 {
				t.Fatalf("site stats: %+v", st)
			}
			if c.Network().Messages == 0 && proto != Baseline {
				t.Fatal("no network traffic recorded")
			}
		})
	}
}

func TestFacadeConflict(t *testing.T) {
	c, err := New(Options{Protocol: Atomic, Sites: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.SubmitConcurrent([]Submission{
		{Site: 0, Txn: NewTxn().Read("x").Write("x", []byte("a"))},
		{Site: 1, Txn: NewTxn().Read("x").Write("x", []byte("b"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for _, r := range results {
		if r.Committed {
			committed++
		} else if r.Reason != "certification" {
			t.Fatalf("unexpected abort reason %q", r.Reason)
		}
	}
	if committed != 1 {
		t.Fatalf("committed %d, want exactly 1", committed)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCausalStallTimesOut(t *testing.T) {
	c, err := New(Options{Protocol: Causal, Sites: 3, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(0, NewTxn().Write("x", []byte("v")))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected stall timeout, got %v", err)
	}
}

func TestFacadeCrashFailover(t *testing.T) {
	c, err := New(Options{Protocol: Atomic, Sites: 5, Membership: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(0, NewTxn().Write("pre", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	c.Crash(4)
	if err := c.Advance(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(1, NewTxn().Write("post", []byte("2")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("post-crash txn aborted: %s", res.Reason)
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := New(Options{Protocol: "bogus"}); err == nil {
		t.Fatal("expected protocol error")
	}
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Sites() != 3 {
		t.Fatalf("default sites = %d", c.Sites())
	}
	if _, err := c.SubmitConcurrent([]Submission{{Site: 99, Txn: NewTxn()}}); err == nil {
		t.Fatal("expected site range error")
	}
	if err := c.Check(); err == nil {
		t.Fatal("Check without Verify should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Write on read-only should panic")
		}
	}()
	ReadOnlyTxn().Write("x", nil)
}

func TestFacadeQuorum(t *testing.T) {
	c, err := New(Options{Protocol: Quorum, Sites: 5, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Submit(0, NewTxn().Write("k", []byte("q"))); err != nil || !res.Committed {
		t.Fatalf("write: %+v %v", res, err)
	}
	// Quorum reads go through transactions; Get may legitimately see a
	// stale minority replica, so assert via a read-only transaction.
	read, err := c.Submit(3, ReadOnlyTxn().Read("k"))
	if err != nil || !read.Committed {
		t.Fatalf("read: %+v %v", read, err)
	}
	if string(read.Values["k"]) != "q" {
		t.Fatalf("quorum read %q", read.Values["k"])
	}
	// Minority crash tolerated with zero detection machinery.
	c.Crash(4)
	c.Crash(3)
	if res, err := c.Submit(0, NewTxn().Write("k2", []byte("post"))); err != nil || !res.Committed {
		t.Fatalf("post-crash write: %+v %v", res, err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeConfigPassthrough(t *testing.T) {
	// The snapshot option plumbs through to a working cluster, whose
	// protocol R ships each write set in one batch.
	c, err := New(Options{Protocol: Reliable, Sites: 3, SnapshotReadOnly: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Submit(0, NewTxn().Write("a", []byte("1")).Write("b", []byte("2"))); err != nil || !res.Committed {
		t.Fatalf("batched write: %+v %v", res, err)
	}
	read, err := c.Submit(1, ReadOnlyTxn().Read("a").Read("b"))
	if err != nil || !read.Committed {
		t.Fatalf("snapshot read: %+v %v", read, err)
	}
	if string(read.Values["a"]) != "1" || string(read.Values["b"]) != "2" {
		t.Fatalf("values %v", read.Values)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitWithRetry(t *testing.T) {
	c, err := New(Options{Protocol: Atomic, Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Provoke a first-attempt certification abort: a racing pair, then
	// retry the loser.
	results, err := c.SubmitConcurrent([]Submission{
		{Site: 0, Txn: NewTxn().Read("x").Write("x", []byte("a"))},
		{Site: 1, Txn: NewTxn().Read("x").Write("x", []byte("b"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	loser := -1
	for i, r := range results {
		if !r.Committed {
			loser = i
		}
	}
	if loser == -1 {
		t.Fatal("expected one certification abort")
	}
	res, attempts, err := c.SubmitWithRetry(loser, NewTxn().Read("x").Write("x", []byte("retry")), 3)
	if err != nil || !res.Committed {
		t.Fatalf("retry failed: %+v %v", res, err)
	}
	if attempts > 3 {
		t.Fatalf("attempts = %d", attempts)
	}
	// Non-transient reasons do not retry.
	c2, _ := New(Options{Protocol: Causal, Sites: 3, Heartbeat: -1})
	if _, _, err := c2.SubmitWithRetry(0, NewTxn().Write("y", []byte("v")), 2); err == nil {
		t.Fatal("stalled submit should surface the timeout, not retry forever")
	}
}
