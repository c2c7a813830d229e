package livenet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/message"
)

// bareHost is a host with no node and no sockets: Offload, Do and Close
// need neither.
func bareHost(t *testing.T) *Host {
	t.Helper()
	h, err := New(Config{ID: 0, Addrs: map[message.SiteID]string{0: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// await fails the test if ch does not deliver within the deadline.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestOffloadFIFOOnOneGoroutine: jobs queued from several goroutines run
// one at a time, each submitter's in the order it queued them, and every
// completion runs on the event loop after its work returned.
func TestOffloadFIFOOnOneGoroutine(t *testing.T) {
	h := bareHost(t)
	const submitters, perSubmitter = 4, 50
	var running atomic.Int32
	var mu sync.Mutex
	ran := make(map[int][]int) // submitter -> job numbers in run order
	var worked [submitters][perSubmitter]atomic.Bool
	doneCh := make(chan struct{}, submitters*perSubmitter)
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				i := i
				ok := h.Offload(func() {
					if n := running.Add(1); n != 1 {
						t.Errorf("%d jobs running at once", n)
					}
					mu.Lock()
					ran[s] = append(ran[s], i)
					mu.Unlock()
					worked[s][i].Store(true)
					running.Add(-1)
				}, func() {
					if !worked[s][i].Load() {
						t.Errorf("completion of job %d/%d before its work", s, i)
					}
					if h.mu.TryLock() {
						h.mu.Unlock()
						t.Errorf("completion of job %d/%d ran without the event loop", s, i)
					}
					doneCh <- struct{}{}
				})
				if !ok {
					t.Errorf("Offload refused job %d/%d on a live host", s, i)
				}
			}
		}(s)
	}
	wg.Wait()
	for n := 0; n < submitters*perSubmitter; n++ {
		await(t, doneCh, "completions")
	}
	for s := 0; s < submitters; s++ {
		for i, got := range ran[s] {
			if got != i {
				t.Fatalf("submitter %d: jobs ran in order %v", s, ran[s])
			}
		}
	}
}

// TestOffloadCloseJoinsSyncer: Close returns only after every accepted job
// has run — the one in progress and the ones queued behind it — drops
// their completions, and later jobs are refused.
func TestOffloadCloseJoinsSyncer(t *testing.T) {
	h := bareHost(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var worked atomic.Int32
	completed := func() { t.Error("completion ran although the host closed before its work returned") }
	h.Offload(func() {
		close(started)
		<-release
		worked.Add(1)
	}, completed)
	for i := 0; i < 3; i++ {
		h.Offload(func() { worked.Add(1) }, completed)
	}
	await(t, started, "the first job to start")
	closed := make(chan struct{})
	go func() {
		h.Close()
		close(closed)
	}()
	// Close has marked the host closed once Do stops running closures.
	for stillOpen := true; stillOpen; {
		stillOpen = false
		h.Do(func() { stillOpen = true })
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	default:
	}
	close(release)
	await(t, closed, "Close")
	if n := worked.Load(); n != 4 {
		t.Fatalf("%d of 4 accepted jobs ran before Close returned", n)
	}
	if h.Offload(func() { t.Error("work ran after Close") }, completed) {
		t.Fatal("Offload accepted a job after Close")
	}
}

// TestOffloadCompletionsEnterLoopOnce: completions that become ready while
// the loop is busy are all run by the poster's next entry, not one entry
// each.
func TestOffloadCompletionsEnterLoopOnce(t *testing.T) {
	h := bareHost(t)
	held := make(chan struct{})
	release := make(chan struct{})
	go h.Do(func() {
		close(held)
		<-release
	})
	await(t, held, "the loop to be taken")
	const jobs = 5
	worked := make(chan struct{}, jobs)
	var order []int
	doneCh := make(chan struct{}, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		h.Offload(func() { worked <- struct{}{} }, func() {
			order = append(order, i) // on the loop: no lock needed
			doneCh <- struct{}{}
		})
	}
	for i := 0; i < jobs; i++ {
		await(t, worked, "work") // the syncer does not need the loop
	}
	// The last job's completion is listed right after its work returned.
	for ready := 0; ready < jobs; {
		h.off.mu.Lock()
		ready = len(h.off.ready)
		h.off.mu.Unlock()
	}
	close(release)
	for i := 0; i < jobs; i++ {
		await(t, doneCh, "completions")
	}
	var posts int64
	h.Do(func() { posts = h.posts })
	if posts != 1 {
		t.Fatalf("poster entered the loop %d times for %d completions ready together, want 1", posts, jobs)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("completions ran in order %v", order)
	}
}
