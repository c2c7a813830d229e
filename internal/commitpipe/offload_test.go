package commitpipe

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/message"
	"repro/internal/storage"
)

// stepOffloader is a runtime whose second thread the test is: Offload only
// records the job; runWork plays the syncer (on the calling goroutine or on
// one the test starts), post plays the poster. With auto set every job's
// work runs at once on a goroutine of its own — a syncer that needs nobody
// to step it — and only the completions wait for post.
type stepOffloader struct {
	mu       sync.Mutex
	queued   []func() // work not yet run
	dones    []func() // done of each job, in queue order
	finished int      // jobs whose work has returned
	posted   int      // jobs whose done has run
	closing  bool
	auto     bool
	wg       sync.WaitGroup
}

func (o *stepOffloader) Offload(work, done func()) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closing {
		return false
	}
	o.dones = append(o.dones, done)
	if o.auto {
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			work()
			o.mu.Lock()
			o.finished++
			o.mu.Unlock()
		}()
		return true
	}
	o.queued = append(o.queued, work)
	return true
}

// runWork runs the oldest queued work; it reports false when none is queued.
func (o *stepOffloader) runWork() bool {
	o.mu.Lock()
	if len(o.queued) == 0 {
		o.mu.Unlock()
		return false
	}
	work := o.queued[0]
	o.queued = o.queued[1:]
	o.mu.Unlock()
	work()
	o.mu.Lock()
	o.finished++
	o.mu.Unlock()
	return true
}

// post runs, on the caller's goroutine (the "loop"), the completion of every
// job whose work has returned, and reports how many it ran.
func (o *stepOffloader) post() int {
	o.mu.Lock()
	ready := append([]func(){}, o.dones[o.posted:o.finished]...)
	o.posted = o.finished
	o.mu.Unlock()
	for _, done := range ready {
		done()
	}
	return len(ready)
}

func (o *stepOffloader) jobs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.dones)
}

// disk is a log device that records what reached it.
type disk struct {
	buf     bytes.Buffer
	syncs   int
	syncErr error
}

func (d *disk) indexes(t *testing.T) []uint64 {
	t.Helper()
	var got []uint64
	if err := storage.Replay(bytes.NewReader(d.buf.Bytes()), func(r storage.Record) error {
		got = append(got, r.Index)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func offloadPipe(off *stepOffloader) (*Pipeline, *disk) {
	d := &disk{}
	wal := storage.NewWAL(&d.buf)
	wal.Sync = func() error { d.syncs++; return d.syncErr }
	p := New(Config{Store: storage.New(wal), Policy: Policy{MaxBatch: 2}, Offload: off.Offload})
	return p, d
}

// submit sends one single-write transaction and returns a pointer to its
// outcome: 0 not acknowledged, +n acknowledged true n times, -n false.
func submit(p *Pipeline, seq int) *int {
	out := new(int)
	p.Submit(Txn{
		ID:      txn(0, seq),
		Entries: []Entry{{Writes: []message.KV{kv(fmt.Sprintf("k%d", seq), "v")}}},
		Ack: func(ok bool) {
			if ok {
				*out++
			} else {
				*out--
			}
		},
	})
	return out
}

// TestOffloadSelfClockedBatches walks two batches through the stepped
// runtime: a flush starts with the first pending record, records arriving
// while it is in flight form the next batch, and an acknowledgement fires
// only from the completion of the batch that held its record — after work
// ran, never before.
func TestOffloadSelfClockedBatches(t *testing.T) {
	off := &stepOffloader{}
	p, d := offloadPipe(off)

	a1 := submit(p, 1)
	if off.jobs() != 1 {
		t.Fatalf("first pending record started %d flushes, want 1 (nothing to wait for)", off.jobs())
	}
	a2, a3, a4 := submit(p, 2), submit(p, 3), submit(p, 4)
	if off.jobs() != 1 {
		t.Fatalf("%d flushes with one in flight, want 1", off.jobs())
	}
	if *a1 != 0 || p.Pending() != 4 || d.buf.Len() != 0 {
		t.Fatalf("before work: a1=%d pending=%d disk=%dB, want 0, 4, 0", *a1, p.Pending(), d.buf.Len())
	}

	off.runWork()
	if got := d.indexes(t); fmt.Sprint(got) != "[1]" {
		t.Fatalf("first batch wrote %v, want [1]: only the detached record", got)
	}
	if *a1 != 0 {
		t.Fatal("acknowledged from the syncer: acks belong to the completion on the loop")
	}
	if off.post() != 1 || *a1 != 1 {
		t.Fatalf("completion did not acknowledge the detached record: a1=%d", *a1)
	}
	if *a2 != 0 || *a3 != 0 || *a4 != 0 {
		t.Fatalf("completion of batch 1 acknowledged records of batch 2: %d %d %d", *a2, *a3, *a4)
	}
	if off.jobs() != 2 {
		t.Fatalf("completion with records pending started %d flushes in all, want 2", off.jobs())
	}

	off.runWork()
	off.post()
	if *a2 != 1 || *a3 != 1 || *a4 != 1 {
		t.Fatalf("batch 2 acks: %d %d %d, want 1 1 1", *a2, *a3, *a4)
	}
	if got := d.indexes(t); fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("disk holds %v, want [1 2 3 4]", got)
	}
	if p.Flushes != 2 || d.syncs != 2 || p.BatchSizes.Count() != 2 || p.FsyncLatency.Count() != 2 || p.DurableLatency.Count() != 2 {
		t.Fatalf("flushes=%d syncs=%d batch n=%d fsync n=%d durable n=%d, want 2 each",
			p.Flushes, d.syncs, p.BatchSizes.Count(), p.FsyncLatency.Count(), p.DurableLatency.Count())
	}
	if p.Pending() != 0 || off.jobs() != 2 {
		t.Fatalf("idle pipeline: pending=%d flushes=%d", p.Pending(), off.jobs())
	}
}

// TestOffloadFsyncErrorAcksFalse: a batch whose sync failed never became
// durable, so its clients hear failure; the next batch is judged on its own.
func TestOffloadFsyncErrorAcksFalse(t *testing.T) {
	off := &stepOffloader{}
	p, d := offloadPipe(off)
	d.syncErr = errors.New("disk gone")
	a1 := submit(p, 1)
	a2 := submit(p, 2)
	off.runWork()
	d.syncErr = nil
	off.post()
	if *a1 != -1 {
		t.Fatalf("a1 = %d after a failed fsync, want -1", *a1)
	}
	if p.Flushes != 0 || p.FsyncLatency.Count() != 0 {
		t.Fatalf("failed flush observed as a flush: %d, n=%d", p.Flushes, p.FsyncLatency.Count())
	}
	off.runWork()
	off.post()
	if *a2 != 1 {
		t.Fatalf("a2 = %d, want 1: its own batch synced", *a2)
	}
}

// TestBarrierDrainsInFlightBatch: Barrier, on the loop, with one batch in
// flight and records pending behind it, returns with both durable and
// acknowledged and nothing in flight — it takes the syncer's signal itself
// — and the completions the runtime posts afterwards are no-ops.
func TestBarrierDrainsInFlightBatch(t *testing.T) {
	off := &stepOffloader{auto: true}
	p, d := offloadPipe(off)
	a1 := submit(p, 1)
	a2 := submit(p, 2)
	if idx := p.Barrier(); idx != 2 {
		t.Fatalf("Barrier = %d, want commit index 2", idx)
	}
	off.wg.Wait()
	if *a1 != 1 || *a2 != 1 {
		t.Fatalf("after Barrier: acks %d %d, want 1 1", *a1, *a2)
	}
	if got := d.indexes(t); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("after Barrier the disk holds %v, want [1 2]", got)
	}
	if p.Pending() != 0 || p.inflight || p.wal.Pending() != 0 {
		t.Fatalf("after Barrier: pending=%d inflight=%v wal pending=%d", p.Pending(), p.inflight, p.wal.Pending())
	}
	flushes := p.Flushes
	if n := off.post(); n != 2 {
		t.Fatalf("posted %d late completions, want 2", n)
	}
	if *a1 != 1 || *a2 != 1 || p.Flushes != flushes {
		t.Fatalf("late completions were not no-ops: acks %d %d, flushes %d -> %d", *a1, *a2, flushes, p.Flushes)
	}
	// A late completion that finds a later batch's signal completes that
	// batch: the signal says the batch in flight is on disk, whoever posts.
	a3 := submit(p, 3)
	p.Barrier()
	a4 := submit(p, 4) // in flight; its own completion is not posted yet
	off.wg.Wait()
	if off.post(); *a3 != 1 || *a4 != 1 {
		t.Fatalf("acks %d %d, want 1 1", *a3, *a4)
	}
	if got := d.indexes(t); fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("disk holds %v, want [1 2 3 4]", got)
	}
}

// TestOffloadAckReentersSubmit: an acknowledgement that submits the
// client's next transaction finds a consistent pipeline — its record joins
// the open batch (or starts a flush when none is in flight) and is
// acknowledged by that batch's completion, exactly once.
func TestOffloadAckReentersSubmit(t *testing.T) {
	off := &stepOffloader{}
	p, d := offloadPipe(off)
	var order []int
	var next func(seq int) Txn
	next = func(seq int) Txn {
		return Txn{
			ID:      txn(0, seq),
			Entries: []Entry{{Writes: []message.KV{kv("k", fmt.Sprint(seq))}}},
			Ack: func(ok bool) {
				if !ok {
					t.Errorf("txn %d acked false", seq)
				}
				order = append(order, seq)
				if seq < 4 {
					p.Submit(next(seq + 1))
				}
			},
		}
	}
	p.Submit(next(1))
	for off.runWork() {
		off.post()
	}
	if fmt.Sprint(order) != "[1 2 3 4]" {
		t.Fatalf("ack order %v, want [1 2 3 4]", order)
	}
	if got := d.indexes(t); fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("disk holds %v", got)
	}
	if p.Pending() != 0 || len(p.scratch) != 0 {
		t.Fatalf("pending=%d, scratch depth %d after the chain", p.Pending(), len(p.scratch))
	}
}

// TestSubmitGroupScratchSurvivesReentry: a callback in the middle of a
// group re-enters the pipeline; the outer call's per-transaction state
// (the records each transaction contributed) must read the same afterwards.
func TestSubmitGroupScratchSurvivesReentry(t *testing.T) {
	off := &stepOffloader{}
	p, _ := offloadPipe(off)
	var inner *int
	var aborted, committed int
	p.SubmitGroup([]Txn{
		{ // committing, no records: acknowledged at once, and re-enters
			ID:      txn(0, 1),
			Entries: []Entry{{}},
			Applied: func() {
				// Deep enough to move the scratch stack's backing array.
				for i := 0; i < 64; i++ {
					submit(p, 100+i)
				}
			},
			Ack: func(bool) { inner = submit(p, 50) },
		},
		{ // aborted: must still hear false
			ID:      txn(0, 2),
			Entries: []Entry{{Writes: []message.KV{kv("x", "no")}}},
			Aborted: true,
			Ack: func(ok bool) {
				if !ok {
					aborted++
				}
			},
		},
		{ // committing with a record: queued behind the fsync
			ID:      txn(0, 3),
			Entries: []Entry{{Writes: []message.KV{kv("y", "yes")}}},
			Ack: func(ok bool) {
				if ok {
					committed++
				}
			},
		},
	})
	if aborted != 1 || committed != 0 {
		t.Fatalf("before the fsync: aborted=%d committed=%d, want 1 and 0", aborted, committed)
	}
	if len(p.scratch) != 0 {
		t.Fatalf("scratch depth %d after the outermost call", len(p.scratch))
	}
	for off.runWork() {
		off.post()
	}
	if committed != 1 || inner == nil || *inner != 1 {
		t.Fatalf("after the fsyncs: committed=%d inner=%v", committed, inner)
	}
}

// TestOffloadRefusedRunsInline: a closing runtime takes no job; the batch is
// written on the spot so a Flush during shutdown still makes it durable.
func TestOffloadRefusedRunsInline(t *testing.T) {
	off := &stepOffloader{closing: true}
	p, d := offloadPipe(off)
	a1 := submit(p, 1)
	if *a1 != 1 || d.syncs != 1 || p.inflight {
		t.Fatalf("refused offload: ack=%d syncs=%d inflight=%v, want 1, 1, false", *a1, d.syncs, p.inflight)
	}
	p.Flush()
	if got := d.indexes(t); fmt.Sprint(got) != "[1]" {
		t.Fatalf("disk holds %v", got)
	}
}
